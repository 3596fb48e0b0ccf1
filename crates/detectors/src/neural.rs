//! The neural-network-based detector (Debar, Becker & Siboni 1992).
//!
//! "The Neural-network-based anomaly detector employs sequential ordering
//! of events in its detection approach. The similarity metric for this
//! detector is essentially embedded in the multilayer, feed-forward
//! learning mechanism. Although it does not use explicit probabilistic
//! concepts, the detector's learning algorithm is an approximation
//! function that can be described as mimicking the effects of employing
//! probabilistic concepts such as the conditional probabilities used by
//! the Markov-based detector." (§5.2.)
//!
//! Like the Markov detector, a window of size DW conditions on its first
//! DW − 1 elements (one-hot encoded) and scores the DW-th; the response
//! is `1 − softmax_probability(observed next)`.
//!
//! ## Reliability caveat (§7)
//!
//! "the performance of a multi-layer, feed-forward network relies on a
//! balance of parameter values, e.g., the learning constant, the number
//! of hidden nodes, and the momentum constant. Some combinations of these
//! values may result in weakened anomaly signals. In these cases, the
//! setting of another parameter — the detection threshold — becomes
//! critical." [`NeuralConfig`] exposes exactly those parameters, plus the
//! detection floor itself; the ablation experiment ABL3 sweeps them.

mod activation;
mod mlp;

use detdiv_core::{memoized_scores, SequenceAnomalyDetector, TrainedModel};
use detdiv_sequence::{StreamProfile, Symbol};
use mlp::{encode_context, Mlp, MlpConfig};

/// Hyperparameters of the neural-network-based detector.
#[derive(Debug, Clone, PartialEq)]
pub struct NeuralConfig {
    /// Hidden-layer width.
    pub hidden: usize,
    /// Training epochs over the weighted empirical dataset.
    pub epochs: usize,
    /// The learning constant.
    pub learning_rate: f64,
    /// The momentum constant.
    pub momentum: f64,
    /// Weight-initialisation seed.
    pub seed: u64,
    /// The smallest response treated as maximal. The paper notes the
    /// detection threshold becomes critical for this detector; 0.99
    /// tolerates the approximation error the network adds on top of the
    /// Markov detector's `1 − 0.005` floor.
    pub detection_floor: f64,
    /// Contexts observed fewer than this many times are dropped from the
    /// training set. On large, highly repetitive streams this removes
    /// one-off noise contexts and shrinks training cost by orders of
    /// magnitude without changing what the network can learn reliably.
    pub min_count: u64,
}

impl Default for NeuralConfig {
    fn default() -> Self {
        NeuralConfig {
            hidden: 16,
            epochs: 300,
            learning_rate: 0.4,
            momentum: 0.7,
            seed: 2005,
            detection_floor: 0.99,
            min_count: 1,
        }
    }
}

#[derive(Debug, Clone)]
struct TrainedNet {
    net: Mlp,
    alphabet_size: usize,
}

/// The neural-network-based anomaly detector.
///
/// # Examples
///
/// ```
/// use detdiv_core::{SequenceAnomalyDetector, TrainedModel};
/// use detdiv_detectors::NeuralDetector;
/// use detdiv_sequence::{symbols, StreamProfile};
///
/// let mut train = Vec::new();
/// for _ in 0..60 { train.extend(symbols(&[0, 1, 2, 3])); }
///
/// let mut det = NeuralDetector::new(2);
/// det.train(&StreamProfile::new(&train));
/// let normal = det.scores(&symbols(&[0, 1]))[0];
/// let foreign = det.scores(&symbols(&[1, 0]))[0]; // 1 -> 0 never occurs
/// assert!(normal < 0.5);
/// assert!(foreign > 0.5);
/// ```
#[derive(Debug, Clone)]
pub struct NeuralDetector {
    window: usize,
    config: NeuralConfig,
    state: Option<TrainedNet>,
}

impl NeuralDetector {
    /// Creates an untrained detector with default hyperparameters.
    ///
    /// # Panics
    ///
    /// Panics if `window < 2` (one context element plus the predicted
    /// element are required).
    pub fn new(window: usize) -> Self {
        Self::with_config(window, NeuralConfig::default())
    }

    /// Creates an untrained detector with explicit hyperparameters.
    ///
    /// # Panics
    ///
    /// Panics if `window < 2`, `hidden` or `epochs` is zero,
    /// `learning_rate` is not positive and finite, `momentum` is not
    /// within `[0, 1)`, or `detection_floor` is not within `(0, 1]`.
    pub fn with_config(window: usize, config: NeuralConfig) -> Self {
        assert!(
            window >= 2,
            "the neural detector needs a window of at least 2"
        );
        assert!(config.hidden > 0, "hidden layer must be non-empty");
        assert!(config.epochs > 0, "training needs at least one epoch");
        assert!(
            config.learning_rate.is_finite() && config.learning_rate > 0.0,
            "the learning rate must be positive and finite"
        );
        assert!(
            config.momentum.is_finite() && (0.0..1.0).contains(&config.momentum),
            "the momentum must be in [0, 1)"
        );
        assert!(
            config.detection_floor > 0.0 && config.detection_floor <= 1.0,
            "detection floor must be in (0, 1]"
        );
        NeuralDetector {
            window,
            config,
            state: None,
        }
    }

    /// The detector's hyperparameters.
    pub fn config(&self) -> &NeuralConfig {
        &self.config
    }
}

impl TrainedModel for NeuralDetector {
    fn name(&self) -> &str {
        "neural-network"
    }

    fn window(&self) -> usize {
        self.window
    }

    fn score_one(&self, window: &[Symbol]) -> f64 {
        if window.len() != self.window {
            return 1.0;
        }
        let Some(state) = &self.state else {
            return 1.0;
        };
        // A symbol outside the training alphabet is a foreign symbol —
        // maximally anomalous by definition.
        if window.iter().any(|s| s.index() >= state.alphabet_size) {
            return 1.0;
        }
        let ctx_len = self.window - 1;
        let ctx_ids: Vec<usize> = window[..ctx_len].iter().map(|s| s.index()).collect();
        let input = encode_context(&ctx_ids, state.alphabet_size);
        let out = state.net.forward(&input);
        1.0 - out[window[ctx_len].index()]
    }

    /// The forward pass runs once per distinct window.
    fn scores(&self, test: &[Symbol]) -> Vec<f64> {
        memoized_scores(self, test)
    }

    fn maximal_response_floor(&self) -> f64 {
        self.config.detection_floor
    }

    fn approx_bytes(&self) -> usize {
        // Weight + momentum matrices: f64 per connection (incl. bias),
        // doubled for the momentum buffers.
        self.state.as_ref().map_or(0, |s| {
            let layers = s.net.config().layers();
            layers
                .windows(2)
                .map(|w| (w[0] + 1) * w[1] * std::mem::size_of::<f64>() * 2)
                .sum()
        })
    }
}

impl SequenceAnomalyDetector for NeuralDetector {
    fn train(&mut self, profile: &StreamProfile<'_>) {
        let ctx_len = self.window - 1;
        let alphabet_size = profile
            .stream()
            .iter()
            .map(|s| s.index() + 1)
            .max()
            .unwrap_or(0);

        // Train on the weighted empirical distribution of (context, next)
        // pairs — the counted DW-grams — instead of the raw stream:
        // equivalent in expectation and far cheaper on repetitive data
        // (DESIGN.md §3).
        let mut dataset: Vec<(Vec<f64>, usize, f64)> = Vec::new();
        for (gram, count) in profile.counter(self.window).iter() {
            if count < self.config.min_count {
                continue;
            }
            let ctx_ids: Vec<usize> = gram[..ctx_len].iter().map(|s| s.index()).collect();
            dataset.push((
                encode_context(&ctx_ids, alphabet_size),
                gram[ctx_len].index(),
                count as f64,
            ));
        }
        if dataset.is_empty() {
            self.state = None;
            return;
        }
        // The counter iterates a hash map in arbitrary order; sort so
        // training is reproducible for a given seed.
        dataset.sort_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .expect("one-hot encodings are finite")
                .then(a.1.cmp(&b.1))
        });

        let layers = vec![ctx_len * alphabet_size, self.config.hidden, alphabet_size];
        let mut net = Mlp::new(
            MlpConfig::new(layers)
                .with_learning_rate(self.config.learning_rate)
                .with_momentum(self.config.momentum)
                .with_seed(self.config.seed),
        );
        for _ in 0..self.config.epochs {
            net.train_epoch(&dataset);
        }
        self.state = Some(TrainedNet { net, alphabet_size });
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

    fn trained(window: usize) -> NeuralDetector {
        let mut det = NeuralDetector::new(window);
        det.train(&StreamProfile::new(&cycle_train(80)));
        det
    }

    #[test]
    fn cycle_continuations_score_low() {
        let det = trained(2);
        for (a, b) in [(0u32, 1u32), (1, 2), (2, 3), (3, 0)] {
            let s = det.scores(&symbols(&[a, b]))[0];
            assert!(s < 0.2, "({a},{b}) scored {s}");
        }
    }

    #[test]
    fn foreign_transitions_score_high() {
        let det = trained(2);
        for (a, b) in [(0u32, 2u32), (1, 3), (2, 0), (3, 2)] {
            let s = det.scores(&symbols(&[a, b]))[0];
            assert!(s > det.maximal_response_floor(), "({a},{b}) scored {s}");
        }
    }

    #[test]
    fn foreign_symbol_is_maximal() {
        let det = trained(2);
        // Symbol 9 is outside the training alphabet.
        assert_eq!(det.scores(&symbols(&[0, 9])), vec![1.0]);
        assert_eq!(det.scores(&symbols(&[9, 0])), vec![1.0]);
    }

    #[test]
    fn window_three_learns_longer_contexts() {
        let mut det = NeuralDetector::new(3);
        det.train(&StreamProfile::new(&cycle_train(80)));
        let normal = det.scores(&symbols(&[0, 1, 2]))[0];
        let foreign = det.scores(&symbols(&[0, 1, 0]))[0];
        assert!(normal < 0.2, "normal scored {normal}");
        assert!(foreign > 0.9, "foreign scored {foreign}");
    }

    #[test]
    fn untrained_detector_alarms_everywhere() {
        let det = NeuralDetector::new(2);
        assert!(det.state.is_none());
        assert_eq!(det.scores(&symbols(&[0, 1, 2])), vec![1.0, 1.0]);
    }

    #[test]
    fn degenerate_training_is_handled() {
        let mut det = NeuralDetector::new(3);
        det.train(&StreamProfile::new(&symbols(&[0, 1]))); // shorter than the window
        assert!(det.state.is_none());
    }

    #[test]
    fn min_count_filters_noise_contexts() {
        let config = NeuralConfig {
            min_count: 2,
            ..NeuralConfig::default()
        };
        let mut det = NeuralDetector::with_config(2, config);
        // (7,7) occurs once: filtered; cycle contexts remain.
        let mut train = cycle_train(50);
        train.extend(symbols(&[7, 7]));
        train.extend(cycle_train(50));
        det.train(&StreamProfile::new(&train));
        assert!(det.state.is_some());
        // Cycle behaviour is still learned.
        assert!(det.scores(&symbols(&[0, 1]))[0] < 0.2);
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
    fn poor_hyperparameters_weaken_the_signal() {
        // The paper's §7 caveat, in miniature: a starved network (one
        // epoch) produces a weaker anomaly response than the default.
        let mut starved = NeuralDetector::with_config(
            2,
            NeuralConfig {
                epochs: 1,
                ..NeuralConfig::default()
            },
        );
        starved.train(&StreamProfile::new(&cycle_train(80)));
        let weak = starved.scores(&symbols(&[0, 2]))[0];
        let strong = trained(2).scores(&symbols(&[0, 2]))[0];
        assert!(weak < strong, "starved {weak} vs trained {strong}");
    }

    #[test]
    fn trait_metadata() {
        let det = NeuralDetector::new(4);
        assert_eq!(det.name(), "neural-network");
        assert_eq!(det.window(), 4);
        assert!((det.maximal_response_floor() - 0.99).abs() < 1e-12);
        assert_eq!(det.min_window(), 2);
    }

    #[test]
    #[should_panic(expected = "window of at least 2")]
    fn window_one_rejected() {
        let _ = NeuralDetector::new(1);
    }

    #[test]
    #[should_panic(expected = "detection floor")]
    fn bad_floor_rejected() {
        let _ = NeuralDetector::with_config(
            2,
            NeuralConfig {
                detection_floor: 0.0,
                ..NeuralConfig::default()
            },
        );
    }

    #[test]
    #[should_panic(expected = "learning rate")]
    fn non_positive_learning_rate_rejected() {
        let _ = NeuralDetector::with_config(
            2,
            NeuralConfig {
                learning_rate: 0.0,
                ..NeuralConfig::default()
            },
        );
    }

    #[test]
    #[should_panic(expected = "momentum")]
    fn unit_momentum_rejected() {
        let _ = NeuralDetector::with_config(
            2,
            NeuralConfig {
                momentum: 1.0,
                ..NeuralConfig::default()
            },
        );
    }
}
