//! The degradation ladder: a per-shard hysteresis state machine over
//! [`DegradationLevel`] driven by one target rung per drain cycle.

use crate::pressure::DegradationLevel;

/// Consecutive calm drain cycles the ladder waits before stepping down
/// one rung.
const COOL_CYCLES: u32 = 2;

/// A `(from, to)` ladder movement: `from < to` is a pressure jump,
/// `from > to` a one-rung cooldown step.
pub type LadderTransition = (DegradationLevel, DegradationLevel);

/// The hysteresis state machine. Escalation is immediate (pressure
/// spikes must not wait out a cooldown); de-escalation steps down one
/// rung only after two consecutive observations whose target is below
/// the current rung, so a flapping queue cannot oscillate the service
/// every cycle.
///
/// Everything is a pure function of the observation sequence: feeding
/// the same targets in the same order reproduces the same transition
/// history, which is what the cross-width determinism suite pins down.
#[derive(Debug, Clone, Default)]
pub struct Ladder {
    level: DegradationLevel,
    calm_streak: u32,
}

impl Ladder {
    /// The current rung.
    pub fn level(&self) -> DegradationLevel {
        self.level
    }

    /// Feeds one drain cycle's target rung
    /// ([`crate::PressureSample::classify`]); returns the transition it
    /// caused, if any.
    pub fn observe(&mut self, target: DegradationLevel) -> Option<LadderTransition> {
        let from = self.level;
        if target > from {
            self.level = target;
            self.calm_streak = 0;
        } else if target < from {
            self.calm_streak += 1;
            if self.calm_streak < COOL_CYCLES {
                return None;
            }
            self.level = from.step_down();
            self.calm_streak = 0;
        } else {
            self.calm_streak = 0;
            return None;
        }
        Some((from, self.level))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use DegradationLevel::*;

    fn history(ladder: &mut Ladder, observations: &[DegradationLevel]) -> Vec<LadderTransition> {
        observations
            .iter()
            .filter_map(|&t| ladder.observe(t))
            .collect()
    }

    #[test]
    fn escalation_jumps_immediately() {
        let mut l = Ladder::default();
        assert_eq!(l.observe(Shedding), Some((Full, Shedding)));
    }

    #[test]
    fn deescalation_needs_the_cooldown_and_steps_one_rung() {
        let mut l = Ladder::default();
        l.observe(Shedding);
        assert!(l.observe(Full).is_none(), "first calm cycle waits");
        assert_eq!(l.observe(Full), Some((Shedding, Tier1Only)));
        // Full recovery takes two calm cycles per remaining rung.
        let rest = history(&mut l, &[Full; 4]);
        assert_eq!(rest, vec![(Tier1Only, GatedOnly), (GatedOnly, Full)]);
        assert_eq!(l.level(), Full);
    }

    #[test]
    fn matching_pressure_resets_the_calm_streak() {
        let mut l = Ladder::default();
        l.observe(Tier1Only);
        l.observe(Full); // calm 1
        l.observe(Tier1Only); // streak resets, no transition (already there)
        assert!(l.observe(Full).is_none(), "streak restarted");
        assert!(l.observe(Full).is_some());
    }

    #[test]
    fn histories_replay_identically() {
        let obs = [
            Full, GatedOnly, Shedding, Full, Full, Full, Tier1Only, Full, Full,
        ];
        let a = history(&mut Ladder::default(), &obs);
        let b = history(&mut Ladder::default(), &obs);
        assert_eq!(a, b, "the ladder is a pure function of its inputs");
    }
}
