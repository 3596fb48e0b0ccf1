//! Stide — sequence time-delay embedding (Forrest et al. 1996; Warrender
//! et al. 1999).
//!
//! "Stide is an anomaly detector that is completely dependent upon the
//! sequential ordering of categorical elements in the data stream. The
//! detector establishes whether every fixed-length sequence of size DW
//! from the test data exists in the normal database of same-sized
//! sequences. The value 0 is assigned to indicate that a matching normal
//! sequence was found, and the value 1 is assigned to indicate otherwise.
//! No direct probabilistic concepts ... are employed." (§5.2)

use std::sync::Arc;

use detdiv_core::{SequenceAnomalyDetector, TrainedModel};
use detdiv_sequence::{NgramCounter, StreamProfile, Symbol};

/// The Stide detector: binary foreign-sequence matching.
///
/// # Examples
///
/// ```
/// use detdiv_core::{SequenceAnomalyDetector, TrainedModel};
/// use detdiv_detectors::Stide;
/// use detdiv_sequence::{symbols, StreamProfile};
///
/// let mut stide = Stide::new(2);
/// stide.train(&StreamProfile::new(&symbols(&[1, 2, 3, 1, 2, 3])));
/// // (3,1) is known; (2,1) is foreign.
/// assert_eq!(stide.scores(&symbols(&[3, 1, 2, 1])), vec![0.0, 0.0, 1.0]);
/// ```
#[derive(Debug, Clone)]
pub struct Stide {
    window: usize,
    /// The training census at `window`, read as a presence set.
    db: Arc<NgramCounter>,
}

impl Stide {
    /// Creates an untrained Stide with detector window `window`.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(window: usize) -> Self {
        assert!(window > 0, "detector window must be positive");
        Stide {
            window,
            db: Arc::new(NgramCounter::new(window)),
        }
    }

    /// The normal database (exposed for inspection and for composing
    /// higher-level analyses).
    pub fn database(&self) -> &NgramCounter {
        &self.db
    }
}

impl TrainedModel for Stide {
    fn name(&self) -> &str {
        "stide"
    }

    fn window(&self) -> usize {
        self.window
    }

    #[inline]
    fn score_one(&self, window: &[Symbol]) -> f64 {
        if window.len() != self.window {
            return 1.0;
        }
        if self.db.contains(window) {
            0.0
        } else {
            1.0
        }
    }

    fn approx_bytes(&self) -> usize {
        // One boxed n-gram of `window` symbols per database entry, plus
        // map bookkeeping.
        self.db.distinct() * (self.window * std::mem::size_of::<Symbol>() + 48)
    }
}

impl SequenceAnomalyDetector for Stide {
    fn train(&mut self, profile: &StreamProfile<'_>) {
        self.db = profile.counter(self.window);
    }
}

/// The *locality frame count* (LFC) post-processor of Warrender et
/// al. over a detector's raw responses, mentioned and deliberately set
/// aside by the paper's §5.5 ("Processes occurring after the
/// application of the similarity measure were ignored, e.g., Stide's
/// locality frame count").
///
/// The LFC replaces each position's binary mismatch with the fraction of
/// mismatches among the most recent `frame` windows, suppressing isolated
/// mismatches while amplifying temporally clustered ones. It reads
/// neighbouring windows, so it applies to a whole score vector after
/// scoring, never to one window. With `frame == 1` it returns Stide's
/// responses unchanged.
///
/// # Panics
///
/// Panics if `frame` is zero.
///
/// # Examples
///
/// ```
/// use detdiv_core::{SequenceAnomalyDetector, TrainedModel};
/// use detdiv_detectors::{locality_frame_count, Stide};
/// use detdiv_sequence::{symbols, StreamProfile};
///
/// let mut stide = Stide::new(2);
/// stide.train(&StreamProfile::new(&symbols(&[1, 2, 3, 1, 2, 3])));
/// // Mismatch stream for (3,1,2,1): 0, 0, 1 -> LFC(2): 0, 0, 0.5
/// let raw = stide.scores(&symbols(&[3, 1, 2, 1]));
/// assert_eq!(locality_frame_count(&raw, 2), vec![0.0, 0.0, 0.5]);
/// ```
pub fn locality_frame_count(raw: &[f64], frame: usize) -> Vec<f64> {
    assert!(frame > 0, "locality frame must be positive");
    let mut out = Vec::with_capacity(raw.len());
    let mut in_frame = 0usize;
    for i in 0..raw.len() {
        if raw[i] > 0.0 {
            in_frame += 1;
        }
        if i >= frame && raw[i - frame] > 0.0 {
            in_frame -= 1;
        }
        out.push(in_frame as f64 / frame as f64);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use detdiv_sequence::symbols;

    fn trained_stide(window: usize) -> Stide {
        let mut s = Stide::new(window);
        let mut train = Vec::new();
        for _ in 0..50 {
            train.extend(symbols(&[1, 2, 3, 4]));
        }
        s.train(&StreamProfile::new(&train));
        s
    }

    #[test]
    fn known_windows_score_zero() {
        let s = trained_stide(3);
        let scores = s.scores(&symbols(&[1, 2, 3, 4, 1, 2]));
        assert!(scores.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn foreign_windows_score_one() {
        let s = trained_stide(3);
        // (3,2,1) is foreign to the 1234 cycle.
        let scores = s.scores(&symbols(&[3, 2, 1]));
        assert_eq!(scores, vec![1.0]);
    }

    #[test]
    fn detects_foreign_sequence_only_when_window_covers_it() {
        // The paper's Stide weakness: a minimal foreign sequence of
        // length AS is invisible when DW < AS if all shorter windows are
        // known. Build training containing all bigrams/trigrams of the
        // anomaly but not the full 4-gram.
        let mut train = Vec::new();
        for _ in 0..30 {
            train.extend(symbols(&[1, 2, 3, 4]));
        }
        // Plant the proper subsequences of anomaly (2,4,1,3):
        // prefix (2,4,1) and suffix (4,1,3).
        train.extend(symbols(&[1, 2, 4, 1, 2, 3, 4]));
        train.extend(symbols(&[1, 2, 3, 4, 1, 3, 4]));
        for _ in 0..5 {
            train.extend(symbols(&[1, 2, 3, 4]));
        }

        let anomaly = symbols(&[2, 4, 1, 3]);

        let profile = StreamProfile::new(&train);
        let mut s3 = Stide::new(3);
        s3.train(&profile);
        // Every 3-window of the anomaly exists in training: blind.
        assert!(s3.scores(&anomaly).iter().all(|&x| x == 0.0));

        let mut s4 = Stide::new(4);
        s4.train(&profile);
        assert_eq!(s4.scores(&anomaly), vec![1.0]);
    }

    #[test]
    fn short_test_stream_yields_no_scores() {
        let s = trained_stide(4);
        assert!(s.scores(&symbols(&[1, 2])).is_empty());
    }

    #[test]
    fn retraining_replaces_database() {
        let mut s = Stide::new(2);
        s.train(&StreamProfile::new(&symbols(&[1, 2, 1, 2])));
        assert_eq!(s.scores(&symbols(&[3, 4])), vec![1.0]);
        s.train(&StreamProfile::new(&symbols(&[3, 4, 3, 4])));
        assert_eq!(s.scores(&symbols(&[3, 4])), vec![0.0]);
        assert_eq!(s.scores(&symbols(&[1, 2])), vec![1.0]);
    }

    #[test]
    fn trait_metadata() {
        let s = Stide::new(5);
        assert_eq!(s.name(), "stide");
        assert_eq!(s.window(), 5);
        assert_eq!(s.maximal_response_floor(), 1.0);
        assert_eq!(s.min_window(), 2);
        assert_eq!(s.database().ngram_len(), 5);
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn zero_window_rejected() {
        let _ = Stide::new(0);
    }

    #[test]
    fn lfc_smooths_isolated_mismatches() {
        let mut stide = Stide::new(2);
        stide.train(&StreamProfile::new(&symbols(&[
            1, 2, 3, 4, 1, 2, 3, 4, 1, 2, 3, 4,
        ])));
        // Single foreign bigram (2,1) inside an otherwise normal stream.
        let raw = stide.scores(&symbols(&[1, 2, 1, 2, 3, 4, 1, 2]));
        let scores = locality_frame_count(&raw, 4);
        // Mismatch raw: (1,2)=0 (2,1)=1 (1,2)=0 (2,3)=0 (3,4)=0 (4,1)=0 (1,2)=0
        assert_eq!(scores[1], 0.25);
        // The mismatch washes out of the frame after 4 steps.
        assert_eq!(scores[5], 0.0);
        // Never reaches the maximal response: LFC suppressed the alarm.
        assert!(scores.iter().all(|&x| x < 1.0));
    }

    #[test]
    fn lfc_amplifies_clustered_mismatches() {
        let mut stide = Stide::new(2);
        stide.train(&StreamProfile::new(&symbols(&[1, 2, 3, 4, 1, 2, 3, 4])));
        // Two adjacent foreign bigrams: (2,1) and (1,4)? (4,1) known...
        // stream (1,2,1,4): bigrams (1,2)=0 (2,1)=1 (1,4)=1
        let raw = stide.scores(&symbols(&[1, 2, 1, 4]));
        assert_eq!(locality_frame_count(&raw, 2), vec![0.0, 0.5, 1.0]);
    }

    #[test]
    fn lfc_frame_one_equals_stide() {
        let mut stide = Stide::new(2);
        stide.train(&StreamProfile::new(&symbols(&[1, 2, 3, 1, 2, 3])));
        let raw = stide.scores(&symbols(&[1, 2, 1, 3, 2, 2]));
        assert_eq!(locality_frame_count(&raw, 1), raw);
    }

    #[test]
    #[should_panic(expected = "locality frame must be positive")]
    fn lfc_zero_frame_rejected() {
        let _ = locality_frame_count(&[1.0], 0);
    }
}
