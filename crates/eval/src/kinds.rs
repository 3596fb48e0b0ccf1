//! Detector factory: one place that knows how to instantiate every
//! detector family at a given window.

use detdiv_core::{InstrumentedDetector, SequenceAnomalyDetector};
use detdiv_detectors::{
    HmmConfig, HmmDetector, LaneBrodley, MarkovDetector, NeuralConfig, NeuralDetector,
    RipperConfig, RipperDetector, Stide, TStide,
};

/// Boxes `detector` behind the telemetry-recording wrapper, so every
/// detector the factory hands out feeds the `detector/<name>/*` series
/// (a no-op under `DETDIV_LOG=off`).
fn instrumented<D>(detector: D) -> Box<dyn SequenceAnomalyDetector>
where
    D: SequenceAnomalyDetector + 'static,
{
    Box::new(InstrumentedDetector::new(detector))
}

/// A detector family that can be instantiated at any detector window.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum DetectorKind {
    /// Stide (exact sequence matching).
    Stide,
    /// t-stide (sequence matching with a frequency threshold).
    TStide,
    /// The Markov-based detector under the paper's maximal-response
    /// rule (responses at or above `1 − 0.005` count as maximal).
    Markov,
    /// The Markov-based detector under strict semantics (only exact
    /// zero-probability transitions count) — ablation ABL1.
    MarkovStrict,
    /// The Markov-based detector with an explicit rare threshold `r`
    /// (responses at or above `1 − r` count as maximal) — the
    /// "sensitively tuned" regime of the §7 suppression experiment
    /// (COMB3).
    MarkovRare {
        /// The rare threshold `r`; the detection floor is `1 − r`.
        rare_threshold: f64,
    },
    /// The neural-network-based detector.
    NeuralNetwork {
        /// Hyperparameters (see [`NeuralConfig`]).
        config: NeuralConfig,
    },
    /// The Lane & Brodley detector.
    LaneBrodley,
    /// The HMM-based detector (Warrender et al. 1999's fourth data
    /// model) — extension experiment EXT1.
    Hmm {
        /// Hyperparameters (see [`HmmConfig`]).
        config: HmmConfig,
    },
    /// The RIPPER-style rule-based detector (Warrender et al. 1999's
    /// rule-induction data model) — extension experiment EXT1.
    Ripper {
        /// Hyperparameters (see [`RipperConfig`]).
        config: RipperConfig,
    },
}

impl DetectorKind {
    /// The HMM detector with its default hyperparameters (one state per
    /// observed symbol, moment-matching initialisation).
    pub fn hmm_default() -> Self {
        DetectorKind::Hmm {
            config: HmmConfig::default(),
        }
    }

    /// The rule-based detector with its default hyperparameters.
    pub fn ripper_default() -> Self {
        DetectorKind::Ripper {
            config: RipperConfig::default(),
        }
    }

    /// The neural detector with hyperparameters tuned for corpus-scale
    /// training: noise contexts observed only once are dropped
    /// (`min_count = 2`), which keeps the weighted training set small on
    /// million-element streams without affecting what the network can
    /// learn reliably.
    pub fn neural_default() -> Self {
        DetectorKind::NeuralNetwork {
            config: NeuralConfig {
                min_count: 2,
                ..NeuralConfig::default()
            },
        }
    }

    /// Stable display name of the family.
    pub fn name(&self) -> &'static str {
        match self {
            DetectorKind::Stide => "stide",
            DetectorKind::TStide => "t-stide",
            DetectorKind::Markov => "markov",
            DetectorKind::MarkovStrict => "markov-strict",
            DetectorKind::MarkovRare { .. } => "markov-rare",
            DetectorKind::NeuralNetwork { .. } => "neural-network",
            DetectorKind::LaneBrodley => "lane-brodley",
            DetectorKind::Hmm { .. } => "hmm",
            DetectorKind::Ripper { .. } => "ripper",
        }
    }

    /// Instantiates an untrained detector of this family at `window`.
    ///
    /// # Panics
    ///
    /// Panics if `window` is below the family's minimum (2).
    pub fn build(&self, window: usize) -> Box<dyn SequenceAnomalyDetector> {
        match self {
            DetectorKind::Stide => instrumented(Stide::new(window)),
            DetectorKind::TStide => instrumented(TStide::new(window)),
            DetectorKind::Markov => instrumented(MarkovDetector::new(window)),
            DetectorKind::MarkovStrict => instrumented(MarkovDetector::strict(window)),
            DetectorKind::MarkovRare { rare_threshold } => {
                instrumented(MarkovDetector::with_rare_threshold(window, *rare_threshold))
            }
            DetectorKind::NeuralNetwork { config } => {
                instrumented(NeuralDetector::with_config(window, config.clone()))
            }
            DetectorKind::LaneBrodley => instrumented(LaneBrodley::new(window)),
            DetectorKind::Hmm { config } => {
                instrumented(HmmDetector::with_config(window, config.clone()))
            }
            DetectorKind::Ripper { config } => {
                instrumented(RipperDetector::with_config(window, config.clone()))
            }
        }
    }

    /// The four families of the paper's study, in figure order
    /// (L&B = Fig. 3, Markov = Fig. 4, Stide = Fig. 5, NN = Fig. 6).
    pub fn paper_four() -> Vec<DetectorKind> {
        vec![
            DetectorKind::LaneBrodley,
            DetectorKind::Markov,
            DetectorKind::Stide,
            DetectorKind::neural_default(),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use detdiv_core::{LabeledCase, TrainedModel};
    use detdiv_sequence::StreamProfile;
    use detdiv_synth::{Corpus, SynthesisConfig};
    use std::sync::Arc;

    fn every_kind() -> [DetectorKind; 9] {
        [
            DetectorKind::Stide,
            DetectorKind::TStide,
            DetectorKind::Markov,
            DetectorKind::MarkovStrict,
            DetectorKind::MarkovRare {
                rare_threshold: 0.02,
            },
            DetectorKind::neural_default(),
            DetectorKind::LaneBrodley,
            DetectorKind::hmm_default(),
            DetectorKind::ripper_default(),
        ]
    }

    #[test]
    fn builds_every_family() {
        for kind in every_kind() {
            let det = kind.build(3);
            assert_eq!(det.window(), 3);
            assert!(!det.name().is_empty());
        }
    }

    #[test]
    fn built_models_score_batch_per_window_and_streamed_alike() {
        // Through `build`, so through the telemetry wrapper and the box,
        // both of which forward `scores` and `score_one` separately.
        let config = SynthesisConfig::builder()
            .training_len(20_000)
            .anomaly_sizes(2..=3)
            .windows(2..=4)
            .background_len(256)
            .plant_repeats(2)
            .seed(23)
            .build()
            .unwrap();
        let corpus = Corpus::synthesize(&config).unwrap();
        let window = 3;
        let case = corpus.case(3, window).unwrap();
        let test = case.test_stream();
        let profile = StreamProfile::new(case.training());
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for kind in every_kind() {
            let mut det = kind.build(window);
            det.train(&profile);
            let model = Arc::new(det) as Arc<dyn TrainedModel>;
            let batch = model.scores(test);
            assert_eq!(batch.len(), test.len() - window + 1, "{}", kind.name());
            let per_window: Vec<f64> = test.windows(window).map(|w| model.score_one(w)).collect();
            let streamed = detdiv_stream::stream_scores(&model, test);
            assert_eq!(bits(&batch), bits(&per_window), "{}", kind.name());
            assert_eq!(bits(&batch), bits(&streamed), "{}", kind.name());
        }
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(DetectorKind::Stide.name(), "stide");
        assert_eq!(DetectorKind::MarkovStrict.name(), "markov-strict");
        assert_eq!(DetectorKind::neural_default().name(), "neural-network");
    }

    #[test]
    fn strict_markov_has_floor_one() {
        let det = DetectorKind::MarkovStrict.build(2);
        assert_eq!(det.maximal_response_floor(), 1.0);
        let det = DetectorKind::Markov.build(2);
        assert!(det.maximal_response_floor() < 1.0);
        let det = DetectorKind::MarkovRare {
            rare_threshold: 0.1,
        }
        .build(2);
        assert!((det.maximal_response_floor() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn paper_four_order_matches_figures() {
        let kinds = DetectorKind::paper_four();
        let names: Vec<&str> = kinds.iter().map(|k| k.name()).collect();
        assert_eq!(
            names,
            vec!["lane-brodley", "markov", "stide", "neural-network"]
        );
    }
}
