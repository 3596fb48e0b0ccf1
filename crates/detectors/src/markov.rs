//! The Markov-based detector (Jha, Tan & Maxion 2001; Teng et al. 1990).
//!
//! "The Markov-based anomaly detector employs the sequential ordering of
//! events and conditional probabilities in its detection approach. For
//! every fixed-length sequence ... the detector calculates the
//! probability that the [next] element will follow. ... a score between 0
//! and 1 ... where 1 indicates highly improbable and 0 indicates normal
//! (very probable)." (§5.2.)
//!
//! A window of size DW conditions on its first DW − 1 elements and scores
//! the DW-th; the smallest workable window is therefore 2 (§6).
//!
//! ## Maximal-response semantics
//!
//! The detector's response to a *foreign* transition (zero conditional
//! probability, or an unseen context) is exactly 1. Its response to a
//! *rare* transition is `1 − p` with `0 < p < r` where `r` is the
//! rare-sequence threshold (0.5 % in the paper). The paper's Figure 4
//! credits the Markov detector with detecting minimal foreign sequences
//! composed of rare subsequences across the whole (AS, DW) grid — which
//! requires counting those rare-transition responses as maximal. This
//! implementation therefore reports a maximal-response floor of `1 − r`;
//! [`MarkovDetector::strict`] restores the literal `score == 1` rule for
//! the ablation documented in `DESIGN.md` §2.3.

mod conditional;

use conditional::{ConditionalModel, Prediction};
use detdiv_core::{SequenceAnomalyDetector, TrainedModel};
use detdiv_sequence::{StreamProfile, Symbol, DEFAULT_RARE_THRESHOLD};

/// The Markov-based anomaly detector.
///
/// # Examples
///
/// ```
/// use detdiv_core::{SequenceAnomalyDetector, TrainedModel};
/// use detdiv_detectors::MarkovDetector;
/// use detdiv_sequence::{symbols, StreamProfile};
///
/// let mut det = MarkovDetector::new(2);
/// det.train(&StreamProfile::new(&symbols(&[1, 2, 3, 1, 2, 3, 1, 2, 3])));
/// // (1 -> 2) is certain; (2 -> 1) never occurs.
/// let scores = det.scores(&symbols(&[1, 2, 1]));
/// assert_eq!(scores, vec![0.0, 1.0]);
/// ```
#[derive(Debug, Clone)]
pub struct MarkovDetector {
    window: usize,
    rare_threshold: f64,
    model: Option<ConditionalModel>,
}

impl MarkovDetector {
    /// Creates an untrained detector with window `window` and the
    /// paper's 0.5 % rare-sequence threshold.
    ///
    /// # Panics
    ///
    /// Panics if `window < 2`: the Markov assumption needs at least one
    /// context element and one predicted element.
    pub fn new(window: usize) -> Self {
        Self::with_rare_threshold(window, DEFAULT_RARE_THRESHOLD)
    }

    /// Creates a detector whose maximal-response floor is `1 − r` for the
    /// given rare-sequence threshold `r`.
    ///
    /// # Panics
    ///
    /// Panics if `window < 2` or `r` is not within `[0, 1)`.
    pub fn with_rare_threshold(window: usize, rare_threshold: f64) -> Self {
        assert!(
            window >= 2,
            "the Markov detector needs a window of at least 2"
        );
        assert!(
            (0.0..1.0).contains(&rare_threshold),
            "rare threshold must be in [0, 1)"
        );
        MarkovDetector {
            window,
            rare_threshold,
            model: None,
        }
    }

    /// Creates a detector under *strict* semantics: only responses of
    /// exactly 1 (zero-probability transitions) count as maximal.
    ///
    /// # Panics
    ///
    /// Panics if `window < 2`.
    pub fn strict(window: usize) -> Self {
        Self::with_rare_threshold(window, 0.0)
    }

    /// The rare-sequence threshold determining the maximal-response
    /// floor.
    pub fn rare_threshold(&self) -> f64 {
        self.rare_threshold
    }
}

impl TrainedModel for MarkovDetector {
    fn name(&self) -> &str {
        "markov"
    }

    fn window(&self) -> usize {
        self.window
    }

    #[inline]
    fn score_one(&self, window: &[Symbol]) -> f64 {
        if window.len() != self.window {
            return 1.0;
        }
        let Some(model) = &self.model else {
            // Untrained: everything is maximally anomalous.
            return 1.0;
        };
        let context = &window[..self.window - 1];
        let next = window[self.window - 1];
        match model.predict(context, next) {
            Prediction::UnseenContext => 1.0,
            Prediction::Known(p) => 1.0 - p,
        }
    }

    fn maximal_response_floor(&self) -> f64 {
        1.0 - self.rare_threshold
    }

    fn approx_bytes(&self) -> usize {
        // One (context n-gram, next symbol, count) record per observed
        // transition, plus map bookkeeping.
        let per_entry = (self.window - 1) * std::mem::size_of::<Symbol>()
            + std::mem::size_of::<Symbol>()
            + std::mem::size_of::<u64>()
            + 48;
        self.model
            .as_ref()
            .map_or(0, |m| m.iter_counts().count() * per_entry)
    }
}

impl SequenceAnomalyDetector for MarkovDetector {
    fn train(&mut self, profile: &StreamProfile<'_>) {
        let counts = profile.counter(self.window);
        self.model = (!counts.is_empty()).then(|| ConditionalModel::from_counts(&counts));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use detdiv_sequence::symbols;

    fn cycle_with_rare(reps: usize) -> Vec<Symbol> {
        let mut v = Vec::new();
        for _ in 0..reps {
            v.extend(symbols(&[1, 2, 3, 4]));
        }
        // One rare excursion 2 -> 4 -> resumes cycle from 4.
        v.extend(symbols(&[1, 2, 4, 1, 2, 3, 4]));
        for _ in 0..reps {
            v.extend(symbols(&[1, 2, 3, 4]));
        }
        v
    }

    #[test]
    fn certain_transitions_score_zero() {
        let mut det = MarkovDetector::new(2);
        let mut train = Vec::new();
        for _ in 0..100 {
            train.extend(symbols(&[1, 2, 3, 4]));
        }
        det.train(&StreamProfile::new(&train));
        let scores = det.scores(&symbols(&[1, 2, 3, 4, 1]));
        assert!(scores.iter().all(|&s| s < 1e-9), "{scores:?}");
    }

    #[test]
    fn foreign_transition_scores_exactly_one() {
        let mut det = MarkovDetector::new(2);
        det.train(&StreamProfile::new(&cycle_with_rare(100)));
        // 3 -> 2 never occurs.
        let scores = det.scores(&symbols(&[3, 2]));
        assert_eq!(scores, vec![1.0]);
    }

    #[test]
    fn rare_transition_scores_near_one() {
        let mut det = MarkovDetector::new(2);
        det.train(&StreamProfile::new(&cycle_with_rare(200)));
        // 2 -> 4 occurred once among many 2 -> 3.
        let scores = det.scores(&symbols(&[2, 4]));
        assert_eq!(scores.len(), 1);
        assert!(scores[0] > det.maximal_response_floor(), "{}", scores[0]);
        assert!(scores[0] < 1.0);
    }

    #[test]
    fn unseen_context_is_maximal() {
        let mut det = MarkovDetector::new(3);
        det.train(&StreamProfile::new(&cycle_with_rare(50)));
        // Context (4,3) never occurs.
        let scores = det.scores(&symbols(&[4, 3, 1]));
        assert_eq!(scores, vec![1.0]);
    }

    #[test]
    fn strict_floor_is_one() {
        let det = MarkovDetector::strict(2);
        assert_eq!(det.maximal_response_floor(), 1.0);
        let det = MarkovDetector::new(2);
        assert!((det.maximal_response_floor() - 0.995).abs() < 1e-12);
        let det = MarkovDetector::with_rare_threshold(2, 0.01);
        assert!((det.maximal_response_floor() - 0.99).abs() < 1e-12);
    }

    #[test]
    fn untrained_detector_is_alarmed_by_everything() {
        let det = MarkovDetector::new(2);
        assert_eq!(det.scores(&symbols(&[1, 2, 3])), vec![1.0, 1.0]);
    }

    #[test]
    fn window_metadata() {
        let det = MarkovDetector::new(4);
        assert_eq!(det.name(), "markov");
        assert_eq!(det.window(), 4);
        assert_eq!(det.min_window(), 2);
        assert!(det.model.is_none());
    }

    #[test]
    #[should_panic(expected = "window of at least 2")]
    fn window_one_rejected() {
        let _ = MarkovDetector::new(1);
    }

    #[test]
    #[should_panic(expected = "rare threshold")]
    fn bad_threshold_rejected() {
        let _ = MarkovDetector::with_rare_threshold(2, 1.0);
    }

    #[test]
    fn short_test_stream_yields_no_scores() {
        let mut det = MarkovDetector::new(3);
        det.train(&StreamProfile::new(&cycle_with_rare(10)));
        assert!(det.scores(&symbols(&[1, 2])).is_empty());
    }

    #[test]
    fn scores_are_probability_complements() {
        // Context 1 -> next 2 with probability 2/3, next 3 with 1/3.
        let mut det = MarkovDetector::new(2);
        det.train(&StreamProfile::new(&symbols(&[
            1, 2, 1, 2, 1, 3, 1, 2, 1, 2, 1, 3, 1, 2,
        ])));
        // P(2|1) = 5/7, P(3|1) = 2/7.
        let s12 = det.scores(&symbols(&[1, 2]))[0];
        let s13 = det.scores(&symbols(&[1, 3]))[0];
        assert!((s12 - (1.0 - 5.0 / 7.0)).abs() < 1e-12);
        assert!((s13 - (1.0 - 2.0 / 7.0)).abs() < 1e-12);
    }
}
