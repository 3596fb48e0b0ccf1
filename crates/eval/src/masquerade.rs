//! MASQ1: Lane & Brodley on its home turf.
//!
//! The paper's §8 observation — L&B is "blind across the entire space
//! considered, despite its previous application to masquerade
//! detection" — is a statement about *anomaly-type fit*, not detector
//! quality. This experiment closes the loop: on command streams, where
//! the anomaly is a different *user* rather than a minimal foreign
//! sequence, the L&B similarity profile separates self from masquerader
//! cleanly, while its MFS coverage map (Figure 3) stays empty. Diversity
//! in detectors is diversity in the anomaly types they fit.

use detdiv_core::{SequenceAnomalyDetector, TrainedModel};
use detdiv_detectors::LaneBrodley;
use detdiv_sequence::{StreamProfile, SymbolTable};
use detdiv_trace::{generate_command_stream, UserProfile};
use serde::{Deserialize, Serialize};

use crate::error::HarnessError;

/// Result of the MASQ1 masquerade experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MasqueradeResult {
    /// Detector window used.
    pub window: usize,
    /// Mean L&B similarity (1 − response) of the trained user's held-out
    /// session against their own profile.
    pub self_similarity: f64,
    /// Mean similarity of the masquerader's session against that
    /// profile.
    pub masquerader_similarity: f64,
    /// The separation margin (self − masquerader).
    pub margin: f64,
    /// Whether a single threshold separates every windowed mean of the
    /// self session from every windowed mean of the masquerader session.
    pub separable: bool,
}

/// Runs MASQ1: trains L&B on a developer's command history, then
/// compares mean profile similarity of (a) a fresh developer session and
/// (b) an analyst (masquerader) session.
///
/// # Errors
///
/// Propagates command-stream generation failures.
pub fn masq1_lane_brodley_masquerade(
    window: usize,
    seed: u64,
) -> Result<MasqueradeResult, HarnessError> {
    let mut table = SymbolTable::new();
    let developer = UserProfile::developer();
    let analyst = UserProfile::analyst();

    let history = generate_command_stream(&developer, 4000, seed, &mut table)?;
    let self_session = generate_command_stream(&developer, 800, seed + 1, &mut table)?;
    let masquerade_session = generate_command_stream(&analyst, 800, seed + 2, &mut table)?;

    let mut lb = LaneBrodley::new(window);
    lb.train(&StreamProfile::new(&history));

    let mean_similarity = |stream: &[detdiv_sequence::Symbol]| -> f64 {
        let scores = lb.scores(stream);
        let sims: f64 = scores.iter().map(|s| 1.0 - s).sum();
        sims / scores.len() as f64
    };

    // Lane & Brodley smooth window similarities with a trailing mean;
    // we use disjoint 50-window segments as the decision unit.
    let segment_means = |stream: &[detdiv_sequence::Symbol]| -> Vec<f64> {
        let scores = lb.scores(stream);
        scores
            .chunks(50)
            .filter(|c| c.len() == 50)
            .map(|c| c.iter().map(|s| 1.0 - s).sum::<f64>() / c.len() as f64)
            .collect()
    };

    let self_similarity = mean_similarity(&self_session);
    let masquerader_similarity = mean_similarity(&masquerade_session);
    let self_segments = segment_means(&self_session);
    let masq_segments = segment_means(&masquerade_session);
    let min_self = self_segments.iter().cloned().fold(f64::INFINITY, f64::min);
    let max_masq = masq_segments
        .iter()
        .cloned()
        .fold(f64::NEG_INFINITY, f64::max);

    Ok(MasqueradeResult {
        window,
        self_similarity,
        masquerader_similarity,
        margin: self_similarity - masquerader_similarity,
        separable: min_self > max_masq,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lb_separates_self_from_masquerader() {
        let r = masq1_lane_brodley_masquerade(5, 11).unwrap();
        assert!(
            r.self_similarity > r.masquerader_similarity,
            "self {} vs masquerader {}",
            r.self_similarity,
            r.masquerader_similarity
        );
        assert!(r.margin > 0.05, "margin {}", r.margin);
        assert!(r.separable, "{r:?}");
    }

    #[test]
    fn separation_holds_across_seeds_and_windows() {
        for seed in [1u64, 2, 3] {
            for window in [4usize, 6] {
                let r = masq1_lane_brodley_masquerade(window, seed).unwrap();
                assert!(r.margin > 0.0, "seed {seed} window {window}: {r:?}");
            }
        }
    }
}
