//! Guard configuration: the byte budget, the spill directory, the
//! breaker, and their env-var knobs.

use std::path::PathBuf;

use crate::breaker::BreakerConfig;

/// Environment variable naming the resident-state byte budget
/// (hibernation trigger).
pub const ENV_GUARD_BYTES: &str = "DETDIV_GUARD_BYTES";

/// Environment variable naming the hibernation segment directory.
pub const ENV_GUARD_DIR: &str = "DETDIV_GUARD_DIR";

/// Shape of the guard subsystem attached to an ingest service.
///
/// No field is a wall-clock value, so a guarded run's trajectory
/// depends only on what the shards counted. The queue-fill thresholds
/// and the ladder's cooldown are fixed
/// ([`crate::PressureSample::classify`], [`crate::Ladder`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GuardConfig {
    /// Total resident detector-state byte budget across all shards;
    /// `None` disables budget pressure and hibernation-by-budget.
    pub budget_bytes: Option<u64>,
    /// Directory for hibernation segment files; `None` disables
    /// hibernation entirely (budget overruns then only raise pressure).
    pub spill_dir: Option<PathBuf>,
    /// The tier-2 escalation circuit breaker.
    pub breaker: BreakerConfig,
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
    fn shard_budget_divides_and_never_hits_zero() {
        let mut c = GuardConfig::default();
        assert_eq!(c.shard_budget(4), None);
        c.budget_bytes = Some(1000);
        assert_eq!(c.shard_budget(4), Some(250));
        c.budget_bytes = Some(3);
        assert_eq!(c.shard_budget(8), Some(1), "tiny budgets still bind");
    }
}
