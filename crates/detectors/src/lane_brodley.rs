//! The Lane & Brodley detector (Lane & Brodley 1997).
//!
//! "For two fixed-length sequences of the same size, each element in one
//! sequence is compared to its counterpart at the same position in the
//! other sequence. Elements that do not match are given the value 0, and
//! matching elements are given a score that incorporates a weight value.
//! This weight value increases as more adjacent elements are found to
//! match. The similarity metric produces a value between 0 and
//! DW(DW+1)/2, where 0 denotes the greatest degree of dissimilarity
//! (anomaly) ... and DW(DW+1)/2 ... identical sequences." (§5.2.)
//!
//! A test window's anomaly response is computed against the *most
//! similar* normal sequence: `1 − max_n Sim(test, n) / Sim_max`. The
//! paper's Figure 7 illustrates the bias this metric carries: a foreign
//! sequence differing from a normal one only in its final element scores
//! `DW(DW−1)/2` (10 of 15 for DW = 5) — "close to normal" — which is why
//! the detector is blind across the entire MFS space (§7, Figure 3).

use std::sync::Arc;

use detdiv_core::{memoized_scores, SequenceAnomalyDetector, TrainedModel};
use detdiv_sequence::{NgramCounter, StreamProfile, Symbol};

/// Pairwise adjacency-weighted similarity between two same-length
/// sequences.
///
/// Matching elements contribute a weight equal to the length of the run
/// of consecutive matches ending at that position; mismatches contribute
/// zero and reset the run.
///
/// # Panics
///
/// Panics if the sequences differ in length.
///
/// # Examples
///
/// The paper's Figure 7 (`cd <1> ls laf tar` encoded as symbols):
///
/// ```
/// use detdiv_detectors::lane_brodley_similarity;
/// use detdiv_sequence::{symbols, StreamProfile};
///
/// let normal = symbols(&[0, 1, 2, 3, 4]); // cd <1> ls laf tar
/// assert_eq!(lane_brodley_similarity(&normal, &normal), 15);
///
/// let foreign = symbols(&[0, 1, 2, 3, 0]); // cd <1> ls laf cd
/// assert_eq!(lane_brodley_similarity(&normal, &foreign), 10);
/// ```
pub fn lane_brodley_similarity(a: &[Symbol], b: &[Symbol]) -> u64 {
    assert_eq!(
        a.len(),
        b.len(),
        "similarity requires same-length sequences"
    );
    let mut run = 0u64;
    let mut total = 0u64;
    for (x, y) in a.iter().zip(b) {
        if x == y {
            run += 1;
            total += run;
        } else {
            run = 0;
        }
    }
    total
}

/// The maximal similarity `DW(DW+1)/2` for window length `window`.
#[inline]
pub const fn lane_brodley_sim_max(window: usize) -> u64 {
    (window as u64 * (window as u64 + 1)) / 2
}

/// The Lane & Brodley detector.
///
/// # Examples
///
/// ```
/// use detdiv_core::{SequenceAnomalyDetector, TrainedModel};
/// use detdiv_detectors::LaneBrodley;
/// use detdiv_sequence::{symbols, StreamProfile};
///
/// let mut det = LaneBrodley::new(5);
/// det.train(&StreamProfile::new(&symbols(&[0, 1, 2, 3, 4, 0, 1, 2, 3, 4])));
/// // Final-element mismatch: similarity 10/15, response 1/3.
/// let scores = det.scores(&symbols(&[0, 1, 2, 3, 0]));
/// assert!((scores[0] - 1.0 / 3.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct LaneBrodley {
    window: usize,
    /// The training census at `window`: its distinct grams are the
    /// normal sequences (the max over duplicates equals the max over
    /// distinct members).
    normals: Arc<NgramCounter>,
}

impl LaneBrodley {
    /// Creates an untrained Lane & Brodley detector with window
    /// `window`.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(window: usize) -> Self {
        assert!(window > 0, "detector window must be positive");
        LaneBrodley {
            window,
            normals: Arc::new(NgramCounter::new(window)),
        }
    }

    /// Anomaly response of a single window against the trained model.
    ///
    /// The cost does not depend on the order the normals are stored in:
    /// a window in the database is answered by one lookup (an exact
    /// match scores `Sim_max`, so its response is exactly 0), and any
    /// other window is compared against every normal.
    ///
    /// # Panics
    ///
    /// Panics if `window.len()` differs from the detector window.
    pub fn response(&self, window: &[Symbol]) -> f64 {
        assert_eq!(window.len(), self.window, "window length mismatch");
        if self.normals.contains(window) {
            return 0.0;
        }
        let best = self
            .normals
            .iter()
            .map(|(n, _)| lane_brodley_similarity(window, n))
            .max()
            .unwrap_or(0);
        1.0 - best as f64 / lane_brodley_sim_max(self.window) as f64
    }
}

impl TrainedModel for LaneBrodley {
    fn name(&self) -> &str {
        "lane-brodley"
    }

    fn window(&self) -> usize {
        self.window
    }

    fn approx_bytes(&self) -> usize {
        // The counter Stide holds at this window: one boxed normal
        // sequence of `window` symbols per entry, plus map bookkeeping.
        self.normals.distinct() * (self.window * std::mem::size_of::<Symbol>() + 48)
    }

    #[inline]
    fn score_one(&self, window: &[Symbol]) -> f64 {
        if window.len() != self.window {
            return 1.0;
        }
        self.response(window)
    }

    /// The max-similarity scan runs once per distinct window.
    fn scores(&self, test: &[Symbol]) -> Vec<f64> {
        memoized_scores(self, test)
    }
}

impl SequenceAnomalyDetector for LaneBrodley {
    fn train(&mut self, profile: &StreamProfile<'_>) {
        self.normals = profile.counter(self.window);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use detdiv_sequence::symbols;

    #[test]
    fn similarity_of_identical_sequences_is_maximal() {
        for dw in 1..=10 {
            let s: Vec<Symbol> = (0..dw as u32).map(Symbol::new).collect();
            assert_eq!(
                lane_brodley_similarity(&s, &s),
                lane_brodley_sim_max(dw),
                "dw={dw}"
            );
        }
    }

    #[test]
    fn figure_7_values() {
        // Identical size-5 sequences: 1+2+3+4+5 = 15.
        let normal = symbols(&[0, 1, 2, 3, 4]);
        assert_eq!(lane_brodley_similarity(&normal, &normal), 15);
        // Final element differs: 1+2+3+4+0 = 10.
        let foreign = symbols(&[0, 1, 2, 3, 0]);
        assert_eq!(lane_brodley_similarity(&normal, &foreign), 10);
        // First element differs: 0+1+2+3+4 = 10 as well (the bias is
        // symmetric at the edges).
        let foreign_front = symbols(&[4, 1, 2, 3, 4]);
        assert_eq!(lane_brodley_similarity(&normal, &foreign_front), 10);
    }

    #[test]
    fn middle_mismatch_is_penalised_more() {
        let normal = symbols(&[0, 1, 2, 3, 4]);
        // Mismatch at centre: runs 1+2 then 1+2 = 6 < 10.
        let mid = symbols(&[0, 1, 9, 3, 4]);
        assert_eq!(lane_brodley_similarity(&normal, &mid), 6);
    }

    #[test]
    fn total_mismatch_is_zero() {
        let a = symbols(&[0, 1, 2]);
        let b = symbols(&[3, 4, 5]);
        assert_eq!(lane_brodley_similarity(&a, &b), 0);
    }

    #[test]
    fn similarity_is_symmetric() {
        let a = symbols(&[0, 1, 2, 1, 0]);
        let b = symbols(&[0, 2, 2, 1, 1]);
        assert_eq!(
            lane_brodley_similarity(&a, &b),
            lane_brodley_similarity(&b, &a)
        );
    }

    #[test]
    #[should_panic(expected = "same-length")]
    fn similarity_rejects_length_mismatch() {
        let _ = lane_brodley_similarity(&symbols(&[1]), &symbols(&[1, 2]));
    }

    #[test]
    fn response_uses_most_similar_normal() {
        let mut det = LaneBrodley::new(3);
        det.train(&StreamProfile::new(&symbols(&[0, 1, 2, 0, 1, 2]))); // normals: 012, 120, 201
                                                                       // (0,1,9): best match 012 with sim 1+2+0 = 3 of 6 -> response 0.5.
        assert!((det.response(&symbols(&[0, 1, 9])) - 0.5).abs() < 1e-12);
        // Identical to a normal: response 0.
        assert_eq!(det.response(&symbols(&[1, 2, 0])), 0.0);
    }

    #[test]
    fn untrained_detector_responds_maximally() {
        let det = LaneBrodley::new(2);
        assert_eq!(det.response(&symbols(&[1, 2])), 1.0);
    }

    #[test]
    fn blind_to_minimal_foreign_sequences() {
        // The paper's central L&B finding: an MFS differing from normal
        // sequences in few positions never draws a maximal response,
        // even when DW = AS.
        let mut train = Vec::new();
        for _ in 0..50 {
            train.extend(symbols(&[1, 2, 3, 4]));
        }
        train.extend(symbols(&[2, 4])); // rare material
        for _ in 0..50 {
            train.extend(symbols(&[1, 2, 3, 4]));
        }
        let mut det = LaneBrodley::new(3);
        det.train(&StreamProfile::new(&train));
        // (1,2,4) is minimal foreign; its best normal match (1,2,3)
        // scores 1+2+0 = 3 of 6.
        let r = det.response(&symbols(&[1, 2, 4]));
        assert!(r < 1.0, "L&B should not respond maximally, got {r}");
        assert!(r > 0.0);
    }

    #[test]
    fn scores_vector_shape() {
        let mut det = LaneBrodley::new(2);
        det.train(&StreamProfile::new(&symbols(&[1, 2, 1, 2])));
        assert_eq!(det.scores(&symbols(&[1, 2, 1])).len(), 2);
        assert!(det.scores(&symbols(&[1])).is_empty());
    }

    #[test]
    fn normals_are_deduplicated() {
        let mut det = LaneBrodley::new(2);
        det.train(&StreamProfile::new(&symbols(&[1, 2, 1, 2, 1, 2, 1, 2])));
        assert_eq!(det.normals.distinct(), 2); // (1,2) and (2,1)
    }

    #[test]
    fn trait_metadata() {
        let det = LaneBrodley::new(4);
        assert_eq!(det.name(), "lane-brodley");
        assert_eq!(det.window(), 4);
        assert_eq!(det.maximal_response_floor(), 1.0);
    }
}
