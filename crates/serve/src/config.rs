//! Service shape: shard count, queue bounds, and detection tiering.

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

/// How events reach the detector banks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Tiering {
    /// Every event feeds the full bank directly. This is the
    /// differential-testing mode: with one shard and one worker the
    /// service's per-stream verdict sequences are byte-identical to
    /// [`detdiv_stream::StreamEngine`] fed alone.
    Full,
    /// A cheap always-on tier-1 gate fronts the expensive bank: each
    /// stream is scored by an EWMA band until it escalates, and only
    /// escalated streams get (and keep) a tier-2 bank. This is what
    /// makes millions of mostly-quiet streams affordable in one
    /// process.
    Gated(Tier1Config),
}

/// Shape of an [`crate::IngestService`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeConfig {
    /// Number of shards; streams are assigned by
    /// `stream_id_hash % shards`.
    pub shards: usize,
    /// Per-shard ingestion queue bound. A full queue rejects — the
    /// service never buffers unboundedly.
    pub queue_capacity: usize,
    /// Detection tiering.
    pub tiering: Tiering,
}

impl ServeConfig {
    /// A full-tiering config with the given shape.
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
            tiering: Tiering::Full,
        }
    }

    /// Switches the config to gated tiering.
    pub fn gated(mut self, tier1: Tier1Config) -> ServeConfig {
        self.tiering = Tiering::Gated(tier1);
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
