//! The deterministic pressure model: discrete levels computed from
//! observed counters, never from wall-clock readings.

use crate::config::GuardConfig;

/// Discrete pressure classification of one shard at one drain cycle.
///
/// Ordered: comparison follows severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum PressureLevel {
    /// Everything within bounds.
    Nominal,
    /// Queue fill crossed the gate-only threshold.
    Elevated,
    /// Queue fill crossed the tier1-only threshold or the resident-bytes
    /// budget is exceeded.
    High,
    /// Queue fill crossed the shed threshold.
    Critical,
}

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
    /// Classifies the sample against the config's thresholds: the
    /// worst applicable level wins. Pure — no clock, no randomness.
    pub fn classify(&self, config: &GuardConfig) -> PressureLevel {
        let fill = if self.queue_capacity == 0 {
            0.0
        } else {
            self.queue_depth as f64 / self.queue_capacity as f64
        };
        let mut level = PressureLevel::Nominal;
        if fill >= config.gate_only_at {
            level = level.max(PressureLevel::Elevated);
        }
        if fill >= config.tier1_only_at {
            level = level.max(PressureLevel::High);
        }
        if fill >= config.shed_at {
            level = level.max(PressureLevel::Critical);
        }
        if let Some(budget) = self.budget_bytes {
            if self.resident_bytes > budget {
                level = level.max(PressureLevel::High);
            }
        }
        level
    }
}

/// Rung of the degradation ladder. Ordered: higher is more degraded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DegradationLevel {
    /// Normal operation: gate scores, escalations admitted, tier-2
    /// banks run.
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
    /// The ladder rung a pressure level demands.
    pub fn target_for(pressure: PressureLevel) -> DegradationLevel {
        match pressure {
            PressureLevel::Nominal => DegradationLevel::Full,
            PressureLevel::Elevated => DegradationLevel::GatedOnly,
            PressureLevel::High => DegradationLevel::Tier1Only,
            PressureLevel::Critical => DegradationLevel::Shedding,
        }
    }

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
        let cfg = GuardConfig::default();
        assert_eq!(sample(0, 100).classify(&cfg), PressureLevel::Nominal);
        assert_eq!(sample(50, 100).classify(&cfg), PressureLevel::Elevated);
        assert_eq!(sample(75, 100).classify(&cfg), PressureLevel::High);
        assert_eq!(sample(90, 100).classify(&cfg), PressureLevel::Critical);
        assert_eq!(sample(100, 100).classify(&cfg), PressureLevel::Critical);
    }

    #[test]
    fn budget_overrun_is_high_pressure() {
        let cfg = GuardConfig::default();
        let mut s = sample(0, 100);
        s.resident_bytes = 2048;
        s.budget_bytes = Some(1024);
        assert_eq!(s.classify(&cfg), PressureLevel::High);
        // Critical queue fill still dominates.
        s.queue_depth = 95;
        assert_eq!(s.classify(&cfg), PressureLevel::Critical);
    }

    #[test]
    fn classification_is_pure() {
        let cfg = GuardConfig::default();
        let s = sample(80, 100);
        assert_eq!(s.classify(&cfg), s.classify(&cfg));
    }

    #[test]
    fn target_levels_and_names_round_trip() {
        for (p, l, name) in [
            (PressureLevel::Nominal, DegradationLevel::Full, "full"),
            (
                PressureLevel::Elevated,
                DegradationLevel::GatedOnly,
                "gated-only",
            ),
            (
                PressureLevel::High,
                DegradationLevel::Tier1Only,
                "tier1-only",
            ),
            (
                PressureLevel::Critical,
                DegradationLevel::Shedding,
                "shedding",
            ),
        ] {
            assert_eq!(DegradationLevel::target_for(p), l);
            assert_eq!(l.name(), name);
            assert_eq!(DegradationLevel::from_index(l.index()), l);
        }
    }

    #[test]
    fn step_down_descends_one_rung_and_saturates() {
        assert_eq!(
            DegradationLevel::Shedding.step_down(),
            DegradationLevel::Tier1Only
        );
        assert_eq!(
            DegradationLevel::Tier1Only.step_down(),
            DegradationLevel::GatedOnly
        );
        assert_eq!(
            DegradationLevel::GatedOnly.step_down(),
            DegradationLevel::Full
        );
        assert_eq!(DegradationLevel::Full.step_down(), DegradationLevel::Full);
    }
}
