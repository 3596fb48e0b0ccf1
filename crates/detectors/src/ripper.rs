//! The RIPPER-style rule-based detector (Warrender et al. 1999; Lee &
//! Stolfo's application of RIPPER to system-call data).
//!
//! Warrender et al.'s fourth data model learns classification rules that
//! predict the next system call from the preceding window; "anomalies"
//! are violations of high-confidence rules. This detector realises that
//! scheme on the shared trait: for each window, the rule set predicts
//! the final element from the preceding DW − 1 elements, and
//!
//! * if the prediction is **violated**, the response is the deciding
//!   rule's confidence (a confidently violated rule is a strong
//!   anomaly);
//! * if the prediction **holds**, the response is one minus that
//!   confidence (a confidently confirmed rule is strong normality).
//!
//! The default detection floor is 0.95: rule confidences are capped by
//! the generation noise (a cycle rule tops out near `1 − noise`), so the
//! probabilistic detectors' floors near 1 would be unreachable — the
//! same threshold-tuning consideration the paper raises for the neural
//! network.

use std::collections::HashMap;

use detdiv_core::{SequenceAnomalyDetector, TrainedModel};
use detdiv_rules::{examples_from_counter, learn_rules, LearnConfig, RuleSet};
use detdiv_sequence::{BuildSymbolHasher, StreamProfile, Symbol};

/// Hyperparameters of the rule-based detector.
#[derive(Debug, Clone, PartialEq)]
pub struct RipperConfig {
    /// Rule-induction parameters.
    pub learn: LearnConfig,
    /// (context, next) pairs observed fewer than this many times are
    /// dropped before learning — the same million-element-stream
    /// economy as the neural detector's `min_count`.
    pub min_count: u64,
    /// The smallest response treated as maximal.
    pub detection_floor: f64,
}

impl Default for RipperConfig {
    fn default() -> Self {
        RipperConfig {
            learn: LearnConfig::default(),
            min_count: 2,
            detection_floor: 0.95,
        }
    }
}

/// The RIPPER-style rule-based anomaly detector.
///
/// # Examples
///
/// ```
/// use detdiv_core::{SequenceAnomalyDetector, TrainedModel};
/// use detdiv_detectors::RipperDetector;
/// use detdiv_sequence::{symbols, StreamProfile};
///
/// let mut train = Vec::new();
/// for _ in 0..100 { train.extend(symbols(&[0, 1, 2, 3])); }
///
/// let mut det = RipperDetector::new(3);
/// det.train(&StreamProfile::new(&train));
/// let normal = det.scores(&symbols(&[0, 1, 2]))[0];
/// let violation = det.scores(&symbols(&[0, 1, 0]))[0];
/// assert!(normal < 0.1);
/// assert!(violation > 0.9);
/// ```
#[derive(Debug, Clone)]
pub struct RipperDetector {
    window: usize,
    config: RipperConfig,
    rules: Option<RuleSet>,
}

impl RipperDetector {
    /// Creates an untrained detector with default hyperparameters.
    ///
    /// # Panics
    ///
    /// Panics if `window < 2`.
    pub fn new(window: usize) -> Self {
        Self::with_config(window, RipperConfig::default())
    }

    /// Creates an untrained detector with explicit hyperparameters.
    ///
    /// # Panics
    ///
    /// Panics if `window < 2` or `detection_floor` is outside `(0, 1]`.
    pub fn with_config(window: usize, config: RipperConfig) -> Self {
        assert!(
            window >= 2,
            "the rule detector needs a window of at least 2"
        );
        assert!(
            config.detection_floor > 0.0 && config.detection_floor <= 1.0,
            "detection floor must be in (0, 1]"
        );
        RipperDetector {
            window,
            config,
            rules: None,
        }
    }

    /// The detector's hyperparameters.
    pub fn config(&self) -> &RipperConfig {
        &self.config
    }

    /// The learned rule set, if trained.
    pub fn rules(&self) -> Option<&RuleSet> {
        self.rules.as_ref()
    }
}

impl TrainedModel for RipperDetector {
    fn name(&self) -> &str {
        "ripper"
    }

    fn window(&self) -> usize {
        self.window
    }

    fn scores(&self, test: &[Symbol]) -> Vec<f64> {
        if test.len() < self.window {
            return Vec::new();
        }
        let Some(rules) = &self.rules else {
            return vec![1.0; test.len() - self.window + 1];
        };
        let mut cache: HashMap<&[Symbol], f64, BuildSymbolHasher> = HashMap::default();
        test.windows(self.window)
            .map(|w| {
                if let Some(&s) = cache.get(w) {
                    return s;
                }
                let context = &w[..self.window - 1];
                let next = w[self.window - 1];
                let p = rules.predict(context);
                let score = if p.class == next {
                    1.0 - p.confidence
                } else {
                    p.confidence
                };
                cache.insert(w, score);
                score
            })
            .collect()
    }

    fn maximal_response_floor(&self) -> f64 {
        self.config.detection_floor
    }

    fn approx_bytes(&self) -> usize {
        // Per rule: its condition vector plus fixed fields.
        self.rules.as_ref().map_or(0, |rs| {
            rs.rules()
                .iter()
                .map(|r| 64 + r.conditions.len() * 16)
                .sum()
        })
    }
}

impl SequenceAnomalyDetector for RipperDetector {
    fn train(&mut self, profile: &StreamProfile<'_>) {
        // The counted DW-grams, as the neural detector trains from them.
        let mut examples = examples_from_counter(&profile.counter(self.window));
        let min_count = self.config.min_count as f64;
        // A filter that would empty the set is skipped, so tiny
        // fixtures still train.
        if examples.iter().any(|e| e.weight >= min_count) {
            examples.retain(|e| e.weight >= min_count);
        }
        self.rules = learn_rules(&examples, &self.config.learn).ok();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use detdiv_sequence::symbols;

    fn cycle_train(reps: usize) -> Vec<Symbol> {
        let mut v = Vec::new();
        for _ in 0..reps {
            v.extend(symbols(&[0, 1, 2, 3]));
        }
        v
    }

    fn trained(window: usize) -> RipperDetector {
        let mut det = RipperDetector::new(window);
        det.train(&StreamProfile::new(&cycle_train(120)));
        det
    }

    #[test]
    fn confirmed_rules_score_low() {
        let det = trained(2);
        for (a, b) in [(0u32, 1u32), (1, 2), (2, 3), (3, 0)] {
            let s = det.scores(&symbols(&[a, b]))[0];
            assert!(s < 0.1, "({a},{b}) scored {s}");
        }
    }

    #[test]
    fn violated_rules_score_high() {
        let det = trained(2);
        for (a, b) in [(0u32, 2u32), (1, 3), (3, 2)] {
            let s = det.scores(&symbols(&[a, b]))[0];
            assert!(s > det.maximal_response_floor(), "({a},{b}) scored {s}");
        }
    }

    #[test]
    fn wider_windows_learn_positional_rules() {
        let det = trained(4);
        let normal = det.scores(&symbols(&[0, 1, 2, 3]))[0];
        let violation = det.scores(&symbols(&[0, 1, 2, 1]))[0];
        assert!(normal < 0.1, "normal scored {normal}");
        assert!(violation > 0.9, "violation scored {violation}");
    }

    #[test]
    fn untrained_detector_alarms_everywhere() {
        let det = RipperDetector::new(2);
        assert_eq!(det.scores(&symbols(&[0, 1, 2])), vec![1.0, 1.0]);
        assert!(det.rules().is_none());
    }

    #[test]
    fn tiny_fixtures_fall_back_to_unfiltered_examples() {
        let mut det = RipperDetector::new(2);
        // Every pair occurs once: the min_count filter would empty the
        // set; the fallback keeps training possible.
        det.train(&StreamProfile::new(&symbols(&[0, 1, 2, 3, 4])));
        assert!(det.rules().is_some());
    }

    #[test]
    fn deterministic_training() {
        let a = trained(3);
        let b = trained(3);
        assert_eq!(a.rules(), b.rules());
    }

    #[test]
    fn trait_metadata() {
        let det = RipperDetector::new(5);
        assert_eq!(det.name(), "ripper");
        assert_eq!(det.window(), 5);
        assert!((det.maximal_response_floor() - 0.95).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "window of at least 2")]
    fn window_one_rejected() {
        let _ = RipperDetector::new(1);
    }

    #[test]
    #[should_panic(expected = "detection floor")]
    fn bad_floor_rejected() {
        let _ = RipperDetector::with_config(
            2,
            RipperConfig {
                detection_floor: 0.0,
                ..RipperConfig::default()
            },
        );
    }
}
