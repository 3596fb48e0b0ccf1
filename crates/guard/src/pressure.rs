//! The deterministic pressure model: a ladder target computed from
//! observed counters, never from wall-clock readings.

/// Queue fill fraction at or above which the ladder's target is
/// [`DegradationLevel::GatedOnly`].
const GATE_ONLY_AT: f64 = 0.5;
/// Queue fill fraction at or above which the target is
/// [`DegradationLevel::Tier1Only`].
const TIER1_ONLY_AT: f64 = 0.75;
/// Queue fill fraction at or above which the target is
/// [`DegradationLevel::Shedding`].
const SHED_AT: f64 = 0.9;

/// What one drain cycle observed about a shard. Every field is a
/// counter the service maintains deterministically — the
/// sample, and therefore the classification, is identical at every
/// worker width.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PressureSample {
    /// Queue depth at the start of the drain cycle.
    pub queue_depth: usize,
    /// The shard queue's configured bound.
    pub queue_capacity: usize,
    /// Estimated resident detector-state bytes after the previous
    /// cycle's hibernation pass.
    pub resident_bytes: u64,
    /// The per-shard byte budget, if one is configured.
    pub budget_bytes: Option<u64>,
}

impl PressureSample {
    /// The ladder rung this sample demands: the queue fill picks a
    /// rung by the fixed thresholds (0.5, 0.75, 0.9), and a
    /// resident-bytes budget overrun demands at least `Tier1Only`.
    /// Pure — no clock, no randomness.
    pub fn classify(&self) -> DegradationLevel {
        let fill = if self.queue_capacity == 0 {
            0.0
        } else {
            self.queue_depth as f64 / self.queue_capacity as f64
        };
        let by_queue = if fill >= SHED_AT {
            DegradationLevel::Shedding
        } else if fill >= TIER1_ONLY_AT {
            DegradationLevel::Tier1Only
        } else if fill >= GATE_ONLY_AT {
            DegradationLevel::GatedOnly
        } else {
            DegradationLevel::Full
        };
        if self
            .budget_bytes
            .is_some_and(|budget| self.resident_bytes > budget)
        {
            by_queue.max(DegradationLevel::Tier1Only)
        } else {
            by_queue
        }
    }
}

/// Rung of the degradation ladder. Ordered: higher is more degraded.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum DegradationLevel {
    /// Normal operation: gate scores, escalations admitted, tier-2
    /// banks run.
    #[default]
    Full,
    /// New escalations are deferred (the would-escalate verdict is
    /// emitted with an `escalation-deferred` reason); already-escalated
    /// streams keep their tier-2 banks.
    GatedOnly,
    /// Tier-2 is suppressed entirely: escalated streams fall back to
    /// their tier-1 gate verdict at degraded confidence.
    Tier1Only,
    /// Tier1Only drain behaviour plus typed `Shedding` rejection of
    /// every new enqueue.
    Shedding,
}

impl DegradationLevel {
    /// Stable lowercase name (flight records, introspection JSON).
    pub fn name(&self) -> &'static str {
        match self {
            DegradationLevel::Full => "full",
            DegradationLevel::GatedOnly => "gated-only",
            DegradationLevel::Tier1Only => "tier1-only",
            DegradationLevel::Shedding => "shedding",
        }
    }

    /// One rung less degraded (saturating at `Full`).
    pub fn step_down(&self) -> DegradationLevel {
        match self {
            DegradationLevel::Full | DegradationLevel::GatedOnly => DegradationLevel::Full,
            DegradationLevel::Tier1Only => DegradationLevel::GatedOnly,
            DegradationLevel::Shedding => DegradationLevel::Tier1Only,
        }
    }

    /// Dense index (gauge export).
    pub fn index(&self) -> u64 {
        match self {
            DegradationLevel::Full => 0,
            DegradationLevel::GatedOnly => 1,
            DegradationLevel::Tier1Only => 2,
            DegradationLevel::Shedding => 3,
        }
    }

    /// Inverse of [`index`](DegradationLevel::index); out-of-range
    /// values clamp to `Shedding` (the conservative reading).
    pub fn from_index(index: u64) -> DegradationLevel {
        match index {
            0 => DegradationLevel::Full,
            1 => DegradationLevel::GatedOnly,
            2 => DegradationLevel::Tier1Only,
            _ => DegradationLevel::Shedding,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use DegradationLevel::*;

    fn sample(depth: usize, cap: usize) -> PressureSample {
        PressureSample {
            queue_depth: depth,
            queue_capacity: cap,
            resident_bytes: 0,
            budget_bytes: None,
        }
    }

    #[test]
    fn queue_fill_walks_the_levels() {
        assert_eq!(sample(0, 100).classify(), Full);
        assert_eq!(sample(49, 100).classify(), Full);
        assert_eq!(sample(50, 100).classify(), GatedOnly);
        assert_eq!(sample(75, 100).classify(), Tier1Only);
        assert_eq!(sample(90, 100).classify(), Shedding);
        assert_eq!(sample(100, 100).classify(), Shedding);
        assert_eq!(sample(5, 0).classify(), Full, "no capacity, no fill");
    }

    #[test]
    fn budget_overrun_demands_tier1_only() {
        let mut s = sample(0, 100);
        s.resident_bytes = 2048;
        s.budget_bytes = Some(1024);
        assert_eq!(s.classify(), Tier1Only);
        s.resident_bytes = 1024;
        assert_eq!(s.classify(), Full, "at the budget is within it");
        // Critical queue fill still dominates.
        s.resident_bytes = 2048;
        s.queue_depth = 95;
        assert_eq!(s.classify(), Shedding);
    }

    #[test]
    fn names_and_indices_round_trip() {
        for (l, name) in [
            (Full, "full"),
            (GatedOnly, "gated-only"),
            (Tier1Only, "tier1-only"),
            (Shedding, "shedding"),
        ] {
            assert_eq!(l.name(), name);
            assert_eq!(DegradationLevel::from_index(l.index()), l);
        }
    }

    #[test]
    fn step_down_descends_one_rung_and_saturates() {
        assert_eq!(Shedding.step_down(), Tier1Only);
        assert_eq!(Tier1Only.step_down(), GatedOnly);
        assert_eq!(GatedOnly.step_down(), Full);
        assert_eq!(Full.step_down(), Full);
    }
}
