//! Detector combination: exploiting algorithmic diversity.
//!
//! §7 of the paper sketches two combination idioms:
//!
//! * **Union** — deploy detectors side by side and alarm when *any*
//!   member alarms, widening coverage (useful when coverages differ, as
//!   with Stide and Markov at small windows; useless when they coincide,
//!   as with Stide and L&B);
//! * **Suppression** — use a low-false-alarm detector to confirm a
//!   high-coverage one: "any alarms raised by the Markov-based detector,
//!   and not raised by Stide, may be ignored as false alarms; alarms
//!   raised by both Stide and the Markov-based detector are possible
//!   hits". Suppression is alarm-level intersection.

use std::fmt;

use detdiv_sequence::{StreamProfile, Symbol};

use crate::detector::{SequenceAnomalyDetector, TrainedModel};
use crate::error::EvalError;

/// How an ensemble combines its members' alarms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CombinationRule {
    /// Alarm when any member alarms (union of coverages).
    Any,
    /// Alarm only when every member alarms (intersection /
    /// alarm-confirmation).
    All,
}

/// Pointwise OR of two alarm vectors.
///
/// # Errors
///
/// Returns [`EvalError::ScoreLengthMismatch`] if the vectors differ in
/// length.
pub fn alarm_union(a: &[bool], b: &[bool]) -> Result<Vec<bool>, EvalError> {
    if a.len() != b.len() {
        return Err(EvalError::ScoreLengthMismatch {
            expected: a.len(),
            found: b.len(),
        });
    }
    Ok(a.iter().zip(b).map(|(&x, &y)| x || y).collect())
}

/// Pointwise AND of two alarm vectors — the paper's suppression scheme:
/// `primary` alarms not confirmed by `suppressor` are discarded as false
/// alarms.
///
/// # Errors
///
/// Returns [`EvalError::ScoreLengthMismatch`] if the vectors differ in
/// length.
///
/// # Examples
///
/// ```
/// use detdiv_core::suppress_alarms;
///
/// let markov = [true, true, false, true];
/// let stide = [true, false, false, true];
/// assert_eq!(
///     suppress_alarms(&markov, &stide).unwrap(),
///     vec![true, false, false, true]
/// );
/// ```
pub fn suppress_alarms(primary: &[bool], suppressor: &[bool]) -> Result<Vec<bool>, EvalError> {
    if primary.len() != suppressor.len() {
        return Err(EvalError::ScoreLengthMismatch {
            expected: primary.len(),
            found: suppressor.len(),
        });
    }
    Ok(primary
        .iter()
        .zip(suppressor)
        .map(|(&p, &s)| p && s)
        .collect())
}

/// An alarm-level ensemble of same-window detectors, itself a
/// [`SequenceAnomalyDetector`].
///
/// At each window, each member's response is binarised at that
/// member's own maximal-response floor, then the alarms are combined
/// with the configured [`CombinationRule`]; the ensemble's responses
/// are crisp `{0, 1}`.
///
/// # Examples
///
/// See `detdiv_eval`'s suppression experiment, which wraps the Markov
/// detector (primary coverage) and Stide (false-alarm suppressor) in an
/// [`CombinationRule::All`] ensemble.
pub struct AlarmEnsemble {
    name: String,
    rule: CombinationRule,
    members: Vec<Box<dyn SequenceAnomalyDetector>>,
    window: usize,
}

impl AlarmEnsemble {
    /// Builds an ensemble from same-window members.
    ///
    /// # Panics
    ///
    /// Panics if `members` is empty or the members' windows differ — an
    /// alarm-level combination is only meaningful position-by-position,
    /// which requires a common window.
    pub fn new(
        name: &str,
        rule: CombinationRule,
        members: Vec<Box<dyn SequenceAnomalyDetector>>,
    ) -> Self {
        assert!(!members.is_empty(), "ensemble needs at least one member");
        let window = members[0].window();
        assert!(
            members.iter().all(|m| m.window() == window),
            "ensemble members must share a detector window"
        );
        AlarmEnsemble {
            name: name.to_owned(),
            rule,
            members,
            window,
        }
    }

    /// The combination rule.
    pub fn rule(&self) -> CombinationRule {
        self.rule
    }

    /// The member detectors.
    pub fn members(&self) -> &[Box<dyn SequenceAnomalyDetector>] {
        &self.members
    }
}

impl fmt::Debug for AlarmEnsemble {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AlarmEnsemble")
            .field("name", &self.name)
            .field("rule", &self.rule)
            .field(
                "members",
                &self
                    .members
                    .iter()
                    .map(|m| m.name().to_owned())
                    .collect::<Vec<_>>(),
            )
            .finish()
    }
}

impl TrainedModel for AlarmEnsemble {
    fn name(&self) -> &str {
        &self.name
    }

    fn window(&self) -> usize {
        self.window
    }

    fn approx_bytes(&self) -> usize {
        self.members.iter().map(|m| m.approx_bytes()).sum()
    }

    fn score_one(&self, window: &[Symbol]) -> f64 {
        let mut alarms = self
            .members
            .iter()
            .map(|m| m.score_one(window) >= m.maximal_response_floor());
        let alarm = match self.rule {
            CombinationRule::Any => alarms.any(|a| a),
            CombinationRule::All => alarms.all(|a| a),
        };
        if alarm {
            1.0
        } else {
            0.0
        }
    }
}

impl SequenceAnomalyDetector for AlarmEnsemble {
    fn train(&mut self, profile: &StreamProfile<'_>) {
        for m in &mut self.members {
            m.train(profile);
        }
    }

    fn min_window(&self) -> usize {
        self.members
            .iter()
            .map(|m| m.min_window())
            .max()
            .expect("ensemble has members")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use detdiv_sequence::symbols;

    /// Flags windows whose first element equals `trigger`.
    struct FirstIs {
        trigger: u32,
        floor: f64,
        response: f64,
    }

    impl TrainedModel for FirstIs {
        fn name(&self) -> &str {
            "first-is"
        }
        fn window(&self) -> usize {
            2
        }
        fn score_one(&self, window: &[Symbol]) -> f64 {
            if window[0].id() == self.trigger {
                self.response
            } else {
                0.0
            }
        }
        fn maximal_response_floor(&self) -> f64 {
            self.floor
        }
    }

    impl SequenceAnomalyDetector for FirstIs {
        fn train(&mut self, _profile: &StreamProfile<'_>) {}
    }

    fn det(trigger: u32) -> Box<dyn SequenceAnomalyDetector> {
        Box::new(FirstIs {
            trigger,
            floor: 1.0,
            response: 1.0,
        })
    }

    #[test]
    fn alarm_union_and_suppression() {
        let a = [true, false, true];
        let b = [false, false, true];
        assert_eq!(alarm_union(&a, &b).unwrap(), vec![true, false, true]);
        assert_eq!(suppress_alarms(&a, &b).unwrap(), vec![false, false, true]);
        assert!(alarm_union(&a, &[true]).is_err());
        assert!(suppress_alarms(&a, &[true]).is_err());
    }

    #[test]
    fn any_rule_is_union() {
        let e = AlarmEnsemble::new("u", CombinationRule::Any, vec![det(1), det(2)]);
        let s = symbols(&[1, 2, 3, 1]);
        // windows: (1,2) (2,3) (3,1) -> member1 fires on 1st, member2 on 2nd.
        assert_eq!(e.scores(&s), vec![1.0, 1.0, 0.0]);
    }

    #[test]
    fn all_rule_is_intersection() {
        let e = AlarmEnsemble::new("i", CombinationRule::All, vec![det(1), det(1)]);
        let s = symbols(&[1, 2, 1, 3]);
        assert_eq!(e.scores(&s), vec![1.0, 0.0, 1.0]);
        let e2 = AlarmEnsemble::new("i2", CombinationRule::All, vec![det(1), det(2)]);
        assert_eq!(e2.scores(&s), vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn member_floors_are_respected() {
        // A member with sub-1.0 responses but a matching floor still
        // contributes alarms.
        let weak = Box::new(FirstIs {
            trigger: 1,
            floor: 0.9,
            response: 0.95,
        });
        let e = AlarmEnsemble::new("w", CombinationRule::Any, vec![weak]);
        let s = symbols(&[1, 2]);
        assert_eq!(e.scores(&s), vec![1.0]);
        // The ensemble's own responses are crisp, so the default floor
        // of 1.0 classifies them correctly.
        assert_eq!(e.maximal_response_floor(), 1.0);
    }

    #[test]
    fn train_reaches_all_members() {
        struct CountTrain {
            trained: bool,
        }
        impl TrainedModel for CountTrain {
            fn name(&self) -> &str {
                "count"
            }
            fn window(&self) -> usize {
                2
            }
            fn score_one(&self, _window: &[Symbol]) -> f64 {
                0.0
            }
        }
        impl SequenceAnomalyDetector for CountTrain {
            fn train(&mut self, _profile: &StreamProfile<'_>) {
                self.trained = true;
            }
        }
        let mut e = AlarmEnsemble::new(
            "t",
            CombinationRule::Any,
            vec![
                Box::new(CountTrain { trained: false }),
                Box::new(CountTrain { trained: false }),
            ],
        );
        e.train(&StreamProfile::new(&symbols(&[1, 2, 3])));
        // Indirect check: scores work after training and have the right
        // shape.
        assert_eq!(e.scores(&symbols(&[1, 2, 3])).len(), 2);
    }

    #[test]
    #[should_panic(expected = "share a detector window")]
    fn mismatched_windows_panic() {
        struct W3;
        impl TrainedModel for W3 {
            fn name(&self) -> &str {
                "w3"
            }
            fn window(&self) -> usize {
                3
            }
            fn score_one(&self, _window: &[Symbol]) -> f64 {
                0.0
            }
        }
        impl SequenceAnomalyDetector for W3 {
            fn train(&mut self, _profile: &StreamProfile<'_>) {}
        }
        let _ = AlarmEnsemble::new("bad", CombinationRule::Any, vec![det(1), Box::new(W3)]);
    }

    #[test]
    #[should_panic(expected = "at least one member")]
    fn empty_ensemble_panics() {
        let _ = AlarmEnsemble::new("empty", CombinationRule::Any, Vec::new());
    }

    #[test]
    fn debug_lists_members() {
        let e = AlarmEnsemble::new("u", CombinationRule::Any, vec![det(1)]);
        let d = format!("{e:?}");
        assert!(d.contains("first-is"));
    }
}
