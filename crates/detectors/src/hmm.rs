//! The HMM-based detector (Warrender, Forrest & Pearlmutter 1999).
//!
//! The paper's reference [20] evaluated a hidden Markov model alongside
//! Stide and t-stide as data models for system-call streams, with
//! "roughly the same number of states as there are unique system
//! calls". This extension detector brings that fourth model into the
//! diversity study: a window's response is `1 − P(last element | the
//! window's preceding elements)` under the trained HMM's predictive
//! distribution — a *latent-state* analogue of the Markov detector's
//! explicit conditional table.

mod model;
mod train;

use detdiv_core::{memoized_scores, SequenceAnomalyDetector, TrainedModel};
use detdiv_sequence::{StreamProfile, Symbol};
use model::Hmm;
use train::{baum_welch, InitStrategy, TrainConfig};

/// Hyperparameters of the HMM-based detector.
#[derive(Debug, Clone, PartialEq)]
pub struct HmmConfig {
    /// Number of hidden states; `None` uses Warrender et al.'s
    /// heuristic of one state per observed symbol.
    pub states: Option<usize>,
    /// Baum–Welch iteration cap.
    pub max_iters: usize,
    /// Baum–Welch convergence tolerance on the total log-likelihood.
    pub tol: f64,
    /// Initialisation seed.
    pub seed: u64,
    /// The smallest response treated as maximal (the detection
    /// threshold caveat applies to this detector exactly as to the
    /// neural network).
    pub detection_floor: f64,
    /// Training cost is O(events × states²) per EM iteration, so the
    /// stream is subsampled to at most this many events (evenly spaced
    /// chunks). The paper's streams are overwhelmingly repetitive;
    /// subsampling does not change what the model can learn.
    pub max_training_events: usize,
}

impl Default for HmmConfig {
    fn default() -> Self {
        HmmConfig {
            states: None,
            max_iters: 30,
            tol: 1e-3,
            seed: 1999,
            detection_floor: 0.99,
            max_training_events: 20_000,
        }
    }
}

/// The HMM-based anomaly detector.
///
/// # Examples
///
/// ```
/// use detdiv_core::{SequenceAnomalyDetector, TrainedModel};
/// use detdiv_detectors::HmmDetector;
/// use detdiv_sequence::{symbols, StreamProfile};
///
/// let mut train = Vec::new();
/// for _ in 0..200 { train.extend(symbols(&[0, 1, 2, 3])); }
///
/// let mut det = HmmDetector::new(3);
/// det.train(&StreamProfile::new(&train));
/// let normal = det.scores(&symbols(&[0, 1, 2]))[0];
/// let foreign = det.scores(&symbols(&[0, 1, 0]))[0];
/// assert!(normal < 0.5);
/// assert!(foreign > 0.9);
/// ```
#[derive(Debug, Clone)]
pub struct HmmDetector {
    window: usize,
    config: HmmConfig,
    model: Option<Hmm>,
}

impl HmmDetector {
    /// Creates an untrained detector with default hyperparameters.
    ///
    /// # Panics
    ///
    /// Panics if `window < 2`.
    pub fn new(window: usize) -> Self {
        Self::with_config(window, HmmConfig::default())
    }

    /// Creates an untrained detector with explicit hyperparameters.
    ///
    /// # Panics
    ///
    /// Panics if `window < 2`, `states` is `Some(0)` (Baum–Welch refuses
    /// it, which would leave the detector untrained), `max_iters` or
    /// `max_training_events` is zero, or `detection_floor` is outside
    /// `(0, 1]`.
    pub fn with_config(window: usize, config: HmmConfig) -> Self {
        assert!(window >= 2, "the HMM detector needs a window of at least 2");
        assert!(config.states != Some(0), "the HMM needs at least one state");
        assert!(
            config.max_iters > 0,
            "training needs at least one iteration"
        );
        assert!(config.max_training_events > 0, "training needs events");
        assert!(
            config.detection_floor > 0.0 && config.detection_floor <= 1.0,
            "detection floor must be in (0, 1]"
        );
        HmmDetector {
            window,
            config,
            model: None,
        }
    }

    /// The detector's hyperparameters.
    pub fn config(&self) -> &HmmConfig {
        &self.config
    }

    /// Evenly spaced chunks totalling at most `budget` events.
    fn subsample(stream: &[Symbol], budget: usize) -> Vec<&[Symbol]> {
        if stream.len() <= budget {
            return vec![stream];
        }
        // Eight chunks spread across the stream.
        let chunks = 8usize;
        let chunk_len = budget / chunks;
        let stride = stream.len() / chunks;
        (0..chunks)
            .map(|i| {
                let start = i * stride;
                &stream[start..(start + chunk_len).min(stream.len())]
            })
            .collect()
    }
}

impl TrainedModel for HmmDetector {
    fn name(&self) -> &str {
        "hmm"
    }

    fn window(&self) -> usize {
        self.window
    }

    fn score_one(&self, window: &[Symbol]) -> f64 {
        if window.len() != self.window {
            return 1.0;
        }
        let Some(model) = &self.model else {
            return 1.0;
        };
        if window.iter().any(|s| s.index() >= model.symbols()) {
            // Foreign symbol: maximally anomalous by definition.
            return 1.0;
        }
        let (context, next) = (&window[..self.window - 1], window[self.window - 1]);
        1.0 - model.predict_next(context, next)
    }

    /// The forward pass runs once per distinct window.
    fn scores(&self, test: &[Symbol]) -> Vec<f64> {
        memoized_scores(self, test)
    }

    fn maximal_response_floor(&self) -> f64 {
        self.config.detection_floor
    }

    fn approx_bytes(&self) -> usize {
        // π (states) + A (states²) + B (states × symbols), f64 each.
        self.model.as_ref().map_or(0, |m| {
            let (n, k) = (m.states(), m.symbols());
            (n + n * n + n * k) * std::mem::size_of::<f64>()
        })
    }
}

impl SequenceAnomalyDetector for HmmDetector {
    fn train(&mut self, profile: &StreamProfile<'_>) {
        let training = profile.stream();
        if training.is_empty() {
            self.model = None;
            return;
        }
        let states = self.config.states.unwrap_or_else(|| {
            training
                .iter()
                .map(|s| s.index() + 1)
                .max()
                .expect("nonempty training")
        });
        let chunks = Self::subsample(training, self.config.max_training_events);
        // With the one-state-per-symbol heuristic, moment-matching
        // initialisation sidesteps EM's poor local optima on
        // near-deterministic streams; explicit smaller state counts fall
        // back to a seeded random start.
        let init = if states >= training.iter().map(|s| s.index() + 1).max().unwrap_or(0) {
            InitStrategy::FirstOrder
        } else {
            InitStrategy::Random
        };
        let train_config = TrainConfig {
            states,
            max_iters: self.config.max_iters,
            tol: self.config.tol,
            seed: self.config.seed,
            init,
        };
        self.model = baum_welch(&chunks, &train_config).map(|(hmm, _)| hmm);
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

    fn trained(window: usize) -> HmmDetector {
        let mut det = HmmDetector::new(window);
        det.train(&StreamProfile::new(&cycle_train(150)));
        det
    }

    #[test]
    fn cycle_continuations_score_low() {
        let det = trained(2);
        for (a, b) in [(0u32, 1u32), (1, 2), (2, 3), (3, 0)] {
            let s = det.scores(&symbols(&[a, b]))[0];
            assert!(s < 0.3, "({a},{b}) scored {s}");
        }
    }

    #[test]
    fn foreign_transitions_score_high() {
        let det = trained(2);
        for (a, b) in [(0u32, 2u32), (1, 3), (3, 2)] {
            let s = det.scores(&symbols(&[a, b]))[0];
            assert!(s > det.maximal_response_floor(), "({a},{b}) scored {s}");
        }
    }

    #[test]
    fn longer_windows_extend_the_context() {
        let det = trained(4);
        let normal = det.scores(&symbols(&[0, 1, 2, 3]))[0];
        let foreign = det.scores(&symbols(&[0, 1, 2, 0]))[0];
        assert!(normal < 0.3, "normal scored {normal}");
        assert!(foreign > 0.9, "foreign scored {foreign}");
    }

    #[test]
    fn foreign_symbol_is_maximal() {
        let det = trained(2);
        assert_eq!(det.scores(&symbols(&[0, 9])), vec![1.0]);
        assert_eq!(det.scores(&symbols(&[9, 0])), vec![1.0]);
    }

    #[test]
    fn untrained_detector_alarms_everywhere() {
        let det = HmmDetector::new(2);
        assert_eq!(det.scores(&symbols(&[0, 1, 2])), vec![1.0, 1.0]);
    }

    #[test]
    fn subsampling_caps_training_cost() {
        let long = cycle_train(100_000); // 400k elements
        let chunks = HmmDetector::subsample(&long, 16_000);
        let total: usize = chunks.iter().map(|c| c.len()).sum();
        assert!(total <= 16_000);
        assert_eq!(chunks.len(), 8);
        // Short streams pass through untouched.
        let short = cycle_train(10);
        assert_eq!(HmmDetector::subsample(&short, 16_000).len(), 1);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = trained(2);
        let b = trained(2);
        assert_eq!(
            a.scores(&symbols(&[0, 1, 2])),
            b.scores(&symbols(&[0, 1, 2]))
        );
    }

    #[test]
    fn trait_metadata() {
        let det = HmmDetector::new(5);
        assert_eq!(det.name(), "hmm");
        assert_eq!(det.window(), 5);
        assert!(det.model.is_none());
        assert!((det.maximal_response_floor() - 0.99).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "window of at least 2")]
    fn window_one_rejected() {
        let _ = HmmDetector::new(1);
    }

    #[test]
    #[should_panic(expected = "detection floor")]
    fn bad_floor_rejected() {
        let _ = HmmDetector::with_config(
            2,
            HmmConfig {
                detection_floor: 1.5,
                ..HmmConfig::default()
            },
        );
    }

    #[test]
    #[should_panic(expected = "at least one state")]
    fn zero_states_rejected() {
        let _ = HmmDetector::with_config(
            2,
            HmmConfig {
                states: Some(0),
                ..HmmConfig::default()
            },
        );
    }
}
