//! Guard configuration: thresholds, budgets, and the env-var knobs.

use std::path::PathBuf;

use crate::breaker::BreakerConfig;

/// Environment variable naming the resident-state byte budget
/// (hibernation trigger).
pub const ENV_GUARD_BYTES: &str = "DETDIV_GUARD_BYTES";

/// Environment variable naming the hibernation segment directory.
pub const ENV_GUARD_DIR: &str = "DETDIV_GUARD_DIR";

/// Shape of the guard subsystem attached to an ingest service.
///
/// Every threshold feeds the pure pressure classification
/// ([`crate::PressureSample::classify`]); no field is a wall-clock
/// value, so a guarded run's ladder trajectory depends only on what
/// the shards counted.
#[derive(Debug, Clone, PartialEq)]
pub struct GuardConfig {
    /// Total resident detector-state byte budget across all shards;
    /// `None` disables budget pressure and hibernation-by-budget.
    pub budget_bytes: Option<u64>,
    /// Directory for hibernation segment files; `None` disables
    /// hibernation entirely (budget overruns then only raise pressure).
    pub spill_dir: Option<PathBuf>,
    /// Queue fill fraction at or above which pressure is `Elevated`
    /// (ladder target: gated-only).
    pub gate_only_at: f64,
    /// Queue fill fraction at or above which pressure is `High`
    /// (ladder target: tier1-only).
    pub tier1_only_at: f64,
    /// Queue fill fraction at or above which pressure is `Critical`
    /// (ladder target: shedding).
    pub shed_at: f64,
    /// Consecutive calm drain cycles required before the ladder steps
    /// down one rung (hysteresis).
    pub cool_cycles: u32,
    /// The tier-2 escalation circuit breaker.
    pub breaker: BreakerConfig,
}

impl Default for GuardConfig {
    fn default() -> GuardConfig {
        GuardConfig {
            budget_bytes: None,
            spill_dir: None,
            gate_only_at: 0.5,
            tier1_only_at: 0.75,
            shed_at: 0.9,
            cool_cycles: 2,
            breaker: BreakerConfig::default(),
        }
    }
}

impl GuardConfig {
    /// A default config with budget and spill directory taken from the
    /// `DETDIV_GUARD_BYTES` / `DETDIV_GUARD_DIR` environment variables
    /// (unset or unparsable values leave the corresponding field
    /// `None`).
    pub fn from_env() -> GuardConfig {
        let mut config = GuardConfig::default();
        if let Some(bytes) = std::env::var(ENV_GUARD_BYTES)
            .ok()
            .and_then(|v| v.trim().parse::<u64>().ok())
        {
            config.budget_bytes = Some(bytes);
        }
        if let Ok(dir) = std::env::var(ENV_GUARD_DIR) {
            if !dir.trim().is_empty() {
                config.spill_dir = Some(PathBuf::from(dir));
            }
        }
        config
    }

    /// The per-shard slice of the total byte budget (`None` when no
    /// budget is configured). At least 1 so a configured budget always
    /// binds.
    pub fn shard_budget(&self, shards: usize) -> Option<u64> {
        self.budget_bytes
            .map(|total| (total / shards.max(1) as u64).max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_thresholds_are_ordered() {
        let c = GuardConfig::default();
        assert!(c.gate_only_at < c.tier1_only_at);
        assert!(c.tier1_only_at < c.shed_at);
        assert!(c.shed_at <= 1.0);
    }

    #[test]
    fn shard_budget_divides_and_never_hits_zero() {
        let mut c = GuardConfig::default();
        assert_eq!(c.shard_budget(4), None);
        c.budget_bytes = Some(1000);
        assert_eq!(c.shard_budget(4), Some(250));
        c.budget_bytes = Some(3);
        assert_eq!(c.shard_budget(8), Some(1), "tiny budgets still bind");
    }
}
