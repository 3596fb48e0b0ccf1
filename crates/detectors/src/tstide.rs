//! t-stide — Stide with a frequency threshold (Warrender et al. 1999).
//!
//! The paper contrasts detectors that can respond to *rare* sequences
//! (Markov, neural network) with those that cannot (Stide, L&B), and
//! cites Warrender et al.'s "stide with frequency threshold" as the
//! canonical rare-sequence-aware variant of Stide. t-stide is included
//! here as an extension baseline: it treats both foreign sequences and
//! sequences rarer than a threshold as anomalous, sitting between Stide
//! and the Markov detector in the diversity space.

use std::sync::Arc;

use detdiv_core::{SequenceAnomalyDetector, TrainedModel};
use detdiv_sequence::{NgramCounter, StreamProfile, Symbol, DEFAULT_RARE_THRESHOLD};

/// The t-stide detector: foreign *or rare* fixed-length sequences are
/// anomalous.
///
/// Responses: a foreign window scores 1; a window with relative training
/// frequency `f` scores `1 − f`, which exceeds the maximal-response
/// floor `1 − r` exactly when the window is rare (`f < r`).
///
/// # Examples
///
/// ```
/// use detdiv_core::{SequenceAnomalyDetector, TrainedModel};
/// use detdiv_detectors::TStide;
/// use detdiv_sequence::{symbols, StreamProfile};
///
/// let mut train = Vec::new();
/// for _ in 0..300 { train.extend(symbols(&[1, 2, 3, 4])); }
/// train.extend(symbols(&[2, 4])); // one rare bigram
/// for _ in 0..300 { train.extend(symbols(&[1, 2, 3, 4])); }
///
/// let mut det = TStide::new(2);
/// det.train(&StreamProfile::new(&train));
/// let common = det.scores(&symbols(&[1, 2]))[0];
/// let rare = det.scores(&symbols(&[2, 4]))[0];
/// let foreign = det.scores(&symbols(&[1, 3]))[0];
/// assert!(common < det.maximal_response_floor());
/// assert!(rare >= det.maximal_response_floor());
/// assert_eq!(foreign, 1.0);
/// ```
#[derive(Debug, Clone)]
pub struct TStide {
    window: usize,
    rare_threshold: f64,
    /// The training census at `window`.
    db: Arc<NgramCounter>,
}

impl TStide {
    /// Creates an untrained t-stide with the paper's 0.5 % rarity
    /// threshold.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(window: usize) -> Self {
        Self::with_rare_threshold(window, DEFAULT_RARE_THRESHOLD)
    }

    /// Creates a t-stide with rarity threshold `r`.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero or `r` is not within `(0, 1)`.
    pub fn with_rare_threshold(window: usize, rare_threshold: f64) -> Self {
        assert!(window > 0, "detector window must be positive");
        assert!(
            rare_threshold > 0.0 && rare_threshold < 1.0,
            "rare threshold must be in (0, 1)"
        );
        TStide {
            window,
            rare_threshold,
            db: Arc::new(NgramCounter::new(window)),
        }
    }

    /// The rarity threshold.
    pub fn rare_threshold(&self) -> f64 {
        self.rare_threshold
    }
}

impl TrainedModel for TStide {
    fn name(&self) -> &str {
        "t-stide"
    }

    fn window(&self) -> usize {
        self.window
    }

    #[inline]
    fn score_one(&self, window: &[Symbol]) -> f64 {
        if window.len() != self.window {
            return 1.0;
        }
        1.0 - self.db.relative_frequency(window)
    }

    fn maximal_response_floor(&self) -> f64 {
        1.0 - self.rare_threshold
    }

    fn approx_bytes(&self) -> usize {
        // One (n-gram, count) record per distinct window, plus map
        // bookkeeping.
        self.db.distinct()
            * (self.window * std::mem::size_of::<Symbol>() + std::mem::size_of::<u64>() + 48)
    }
}

impl SequenceAnomalyDetector for TStide {
    fn train(&mut self, profile: &StreamProfile<'_>) {
        self.db = profile.counter(self.window);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use detdiv_sequence::symbols;

    fn train_data() -> Vec<Symbol> {
        let mut v = Vec::new();
        for _ in 0..500 {
            v.extend(symbols(&[1, 2, 3, 4]));
        }
        v.extend(symbols(&[2, 4]));
        for _ in 0..500 {
            v.extend(symbols(&[1, 2, 3, 4]));
        }
        v
    }

    #[test]
    fn foreign_scores_one() {
        let mut det = TStide::new(2);
        det.train(&StreamProfile::new(&train_data()));
        assert_eq!(det.scores(&symbols(&[1, 3])), vec![1.0]);
    }

    #[test]
    fn rare_exceeds_floor_common_does_not() {
        let mut det = TStide::new(2);
        det.train(&StreamProfile::new(&train_data()));
        let rare = det.scores(&symbols(&[2, 4]))[0];
        let common = det.scores(&symbols(&[1, 2]))[0];
        assert!(rare >= det.maximal_response_floor() && rare < 1.0);
        assert!(common < det.maximal_response_floor());
    }

    #[test]
    fn floor_tracks_threshold() {
        let det = TStide::with_rare_threshold(2, 0.01);
        assert!((det.maximal_response_floor() - 0.99).abs() < 1e-12);
        assert_eq!(det.rare_threshold(), 0.01);
    }

    #[test]
    fn stide_coverage_is_subset_of_tstide() {
        // Anything Stide flags (foreign, score 1.0) t-stide also flags.
        use crate::Stide;
        let train = train_data();
        let mut stide = Stide::new(2);
        let mut tstide = TStide::new(2);
        let profile = StreamProfile::new(&train);
        stide.train(&profile);
        tstide.train(&profile);
        let test = symbols(&[1, 2, 4, 2, 3, 4, 1]);
        let s = stide.scores(&test);
        let t = tstide.scores(&test);
        for (i, (&ss, &ts)) in s.iter().zip(&t).enumerate() {
            if ss >= 1.0 {
                assert!(ts >= tstide.maximal_response_floor(), "position {i}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "rare threshold")]
    fn bad_threshold_rejected() {
        let _ = TStide::with_rare_threshold(2, 0.0);
    }

    #[test]
    fn trait_metadata() {
        let det = TStide::new(3);
        assert_eq!(det.name(), "t-stide");
        assert_eq!(det.window(), 3);
    }
}
