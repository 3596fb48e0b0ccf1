//! The degradation ladder: a per-shard hysteresis state machine over
//! [`DegradationLevel`] driven by one [`PressureLevel`] observation per
//! drain cycle.

use crate::pressure::{DegradationLevel, PressureLevel};

/// One recorded ladder movement: `from < to` is a pressure jump,
/// `from > to` a one-rung cooldown step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LadderTransition {
    /// The drain cycle (1-based, counted per shard) at which the
    /// transition took effect.
    pub cycle: u64,
    /// Rung before.
    pub from: DegradationLevel,
    /// Rung after.
    pub to: DegradationLevel,
}

/// The hysteresis state machine. Escalation is immediate (pressure
/// spikes must not wait out a cooldown); de-escalation steps down one
/// rung only after `cool_cycles` consecutive observations whose target
/// is below the current rung, so a flapping queue cannot oscillate the
/// service every cycle.
///
/// Everything is a pure function of the observation sequence: feeding
/// the same pressure levels in the same order reproduces the same
/// transition history, which is what the cross-width determinism suite
/// pins down.
#[derive(Debug, Clone)]
pub struct Ladder {
    level: DegradationLevel,
    cool_cycles: u32,
    calm_streak: u32,
    cycle: u64,
}

impl Ladder {
    /// A ladder at `Full` with the given de-escalation hysteresis
    /// (clamped to at least 1 cycle).
    pub fn new(cool_cycles: u32) -> Ladder {
        Ladder {
            level: DegradationLevel::Full,
            cool_cycles: cool_cycles.max(1),
            calm_streak: 0,
            cycle: 0,
        }
    }

    /// The current rung.
    pub fn level(&self) -> DegradationLevel {
        self.level
    }

    /// Drain cycles observed so far.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Feeds one drain cycle's pressure observation; returns the
    /// transition it caused, if any.
    pub fn observe(&mut self, pressure: PressureLevel) -> Option<LadderTransition> {
        self.cycle += 1;
        let target = DegradationLevel::target_for(pressure);
        if target > self.level {
            let from = self.level;
            self.level = target;
            self.calm_streak = 0;
            return Some(LadderTransition {
                cycle: self.cycle,
                from,
                to: target,
            });
        }
        if target < self.level {
            self.calm_streak += 1;
            if self.calm_streak >= self.cool_cycles {
                let from = self.level;
                self.level = self.level.step_down();
                self.calm_streak = 0;
                return Some(LadderTransition {
                    cycle: self.cycle,
                    from,
                    to: self.level,
                });
            }
        } else {
            self.calm_streak = 0;
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pressure::PressureLevel as P;

    fn history(ladder: &mut Ladder, observations: &[P]) -> Vec<LadderTransition> {
        observations
            .iter()
            .filter_map(|&p| ladder.observe(p))
            .collect()
    }

    #[test]
    fn escalation_jumps_immediately() {
        let mut l = Ladder::new(2);
        let t = l.observe(P::Critical).expect("must transition");
        assert_eq!(t.from, DegradationLevel::Full);
        assert_eq!(t.to, DegradationLevel::Shedding);
        assert_eq!(t.cycle, 1);
    }

    #[test]
    fn deescalation_needs_the_cooldown_and_steps_one_rung() {
        let mut l = Ladder::new(2);
        l.observe(P::Critical);
        assert!(l.observe(P::Nominal).is_none(), "first calm cycle waits");
        let t = l.observe(P::Nominal).expect("second calm cycle steps");
        assert_eq!(t.from, DegradationLevel::Shedding);
        assert_eq!(t.to, DegradationLevel::Tier1Only);
        // Full recovery takes cool_cycles per remaining rung.
        let rest = history(&mut l, &[P::Nominal; 4]);
        assert_eq!(
            rest.iter().map(|t| t.to).collect::<Vec<_>>(),
            vec![DegradationLevel::GatedOnly, DegradationLevel::Full]
        );
        assert_eq!(l.level(), DegradationLevel::Full);
    }

    #[test]
    fn matching_pressure_resets_the_calm_streak() {
        let mut l = Ladder::new(2);
        l.observe(P::High);
        l.observe(P::Nominal); // calm 1
        l.observe(P::High); // streak resets, no transition (already there)
        assert!(l.observe(P::Nominal).is_none(), "streak restarted");
        assert!(l.observe(P::Nominal).is_some());
    }

    #[test]
    fn histories_replay_identically() {
        let obs = [
            P::Nominal,
            P::Elevated,
            P::Critical,
            P::Nominal,
            P::Nominal,
            P::Nominal,
            P::High,
            P::Nominal,
            P::Nominal,
        ];
        let a = history(&mut Ladder::new(2), &obs);
        let b = history(&mut Ladder::new(2), &obs);
        assert_eq!(a, b, "the ladder is a pure function of its inputs");
    }
}
