//! The tier-2 escalation circuit breaker: a deterministic
//! closed → open → half-open state machine counted in drain cycles,
//! never wall-clock time.

/// Breaker thresholds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Consecutive tier-2 failures that open the breaker.
    pub failure_threshold: u32,
    /// Drain cycles the breaker stays open before half-opening for a
    /// probe.
    pub open_cycles: u32,
}

impl Default for BreakerConfig {
    fn default() -> BreakerConfig {
        BreakerConfig {
            failure_threshold: 3,
            open_cycles: 4,
        }
    }
}

/// Breaker state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Tier-2 admitted normally.
    Closed,
    /// Tier-2 suppressed; escalated streams fall back to the gate.
    Open,
    /// One probe admitted: its outcome closes or re-opens.
    HalfOpen,
}

impl BreakerState {
    /// Stable lowercase name (flight records, introspection JSON).
    pub fn name(&self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half-open",
        }
    }

    /// Dense index (gauge export).
    pub fn index(&self) -> u64 {
        match self {
            BreakerState::Closed => 0,
            BreakerState::Open => 1,
            BreakerState::HalfOpen => 2,
        }
    }
}

/// A `(from, to)` breaker transition, reported so the serve layer can
/// emit a flight audit record.
pub type BreakerTransition = (BreakerState, BreakerState);

/// The per-shard breaker. All timing is in drain cycles
/// ([`on_cycle`](Breaker::on_cycle) advances them), so the trajectory
/// is a pure function of the failure/success sequence.
#[derive(Debug, Clone)]
pub struct Breaker {
    config: BreakerConfig,
    state: BreakerState,
    consecutive_failures: u32,
    opened_at_cycle: u64,
    cycle: u64,
    opens: u64,
}

impl Breaker {
    /// A closed breaker (thresholds clamped to at least 1).
    pub fn new(config: BreakerConfig) -> Breaker {
        Breaker {
            config: BreakerConfig {
                failure_threshold: config.failure_threshold.max(1),
                open_cycles: config.open_cycles.max(1),
            },
            state: BreakerState::Closed,
            consecutive_failures: 0,
            opened_at_cycle: 0,
            cycle: 0,
            opens: 0,
        }
    }

    /// Current state.
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Times the breaker has opened.
    pub fn opens(&self) -> u64 {
        self.opens
    }

    /// Whether a tier-2 push is admitted right now (closed, or
    /// half-open probing).
    pub fn admits(&self) -> bool {
        !matches!(self.state, BreakerState::Open)
    }

    /// Advances one drain cycle; an open breaker half-opens after its
    /// cooldown elapses.
    pub fn on_cycle(&mut self) -> Option<BreakerTransition> {
        self.cycle += 1;
        if self.state == BreakerState::Open
            && self.cycle - self.opened_at_cycle >= u64::from(self.config.open_cycles)
        {
            self.state = BreakerState::HalfOpen;
            return Some((BreakerState::Open, BreakerState::HalfOpen));
        }
        None
    }

    /// Records a successful tier-2 push: closes a half-open breaker,
    /// clears the failure streak otherwise.
    pub fn on_success(&mut self) -> Option<BreakerTransition> {
        self.consecutive_failures = 0;
        if self.state == BreakerState::HalfOpen {
            self.state = BreakerState::Closed;
            return Some((BreakerState::HalfOpen, BreakerState::Closed));
        }
        None
    }

    /// Records a failed tier-2 push (a newly degraded slot): re-opens
    /// a half-open breaker immediately, opens a closed one at the
    /// failure threshold.
    pub fn on_failure(&mut self) -> Option<BreakerTransition> {
        match self.state {
            BreakerState::HalfOpen => {
                self.state = BreakerState::Open;
                self.opened_at_cycle = self.cycle;
                self.opens += 1;
                self.consecutive_failures = 0;
                Some((BreakerState::HalfOpen, BreakerState::Open))
            }
            BreakerState::Closed => {
                self.consecutive_failures += 1;
                if self.consecutive_failures >= self.config.failure_threshold {
                    self.state = BreakerState::Open;
                    self.opened_at_cycle = self.cycle;
                    self.opens += 1;
                    self.consecutive_failures = 0;
                    Some((BreakerState::Closed, BreakerState::Open))
                } else {
                    None
                }
            }
            BreakerState::Open => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn consecutive_failures_open_interleaved_success_resets() {
        let mut b = Breaker::new(BreakerConfig {
            failure_threshold: 3,
            open_cycles: 2,
        });
        assert!(b.on_failure().is_none());
        assert!(b.on_failure().is_none());
        assert!(b.on_success().is_none(), "success clears the streak");
        assert!(b.on_failure().is_none());
        assert!(b.on_failure().is_none());
        let t = b.on_failure().expect("third consecutive failure opens");
        assert_eq!(t, (BreakerState::Closed, BreakerState::Open));
        assert!(!b.admits());
        assert_eq!(b.opens(), 1);
    }

    #[test]
    fn open_half_opens_after_the_cooldown_then_probes() {
        let mut b = Breaker::new(BreakerConfig {
            failure_threshold: 1,
            open_cycles: 2,
        });
        b.on_cycle();
        b.on_failure().expect("opens at threshold 1");
        assert!(b.on_cycle().is_none(), "cooldown cycle 1");
        let t = b.on_cycle().expect("cooldown elapsed");
        assert_eq!(t, (BreakerState::Open, BreakerState::HalfOpen));
        assert!(b.admits(), "half-open admits the probe");
        // A successful probe closes; a failing probe re-opens.
        let t = b.on_success().expect("probe success closes");
        assert_eq!(t, (BreakerState::HalfOpen, BreakerState::Closed));
        b.on_failure();
        assert!(!b.admits());
        b.on_cycle();
        b.on_cycle();
        assert_eq!(b.state(), BreakerState::HalfOpen);
        let t = b.on_failure().expect("probe failure re-opens");
        assert_eq!(t, (BreakerState::HalfOpen, BreakerState::Open));
        assert_eq!(b.opens(), 3);
    }

    #[test]
    fn trajectories_replay_identically() {
        let drive = |b: &mut Breaker| {
            let mut log = Vec::new();
            for i in 0..40u32 {
                if let Some(t) = b.on_cycle() {
                    log.push(t);
                }
                let outcome = if i % 7 < 3 {
                    b.on_failure()
                } else {
                    b.on_success()
                };
                if let Some(t) = outcome {
                    log.push(t);
                }
            }
            log
        };
        let cfg = BreakerConfig {
            failure_threshold: 2,
            open_cycles: 3,
        };
        assert_eq!(drive(&mut Breaker::new(cfg)), drive(&mut Breaker::new(cfg)));
    }
}
